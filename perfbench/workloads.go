package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"bsd6"
	"bsd6/internal/core"
	"bsd6/internal/key"
)

// A workload opens its sockets on a bed, starts its lanes, and later
// winds them down.  Each workload stresses different layers; the
// comments on the constructors say which and why.
type workload interface {
	// params describes the workload for the provenance record.
	params() map[string]any
	// start opens the sockets and starts the lanes in phaseWarm.
	start(b *bed) error
	// warmed reports whether warm-up is complete.
	warmed(b *bed) bool
	// stop is called once the phase is phaseStop: it waits for the
	// load, closes every socket, waits for every lane and returns the
	// end-of-stream checks that failed.
	stop(b *bed) []string
}

var workloadNames = []string{"rr", "bulk", "esp-bulk", "churn"}

func newWorkload(name string, in *inputs) (workload, error) {
	switch name {
	case "rr":
		return &rrLoad{in: in}, nil
	case "bulk":
		return &bulkLoad{in: in, write: 64 << 10, sockbuf: 256 << 10, warmBytes: 64 << 20}, nil
	case "esp-bulk":
		return &bulkLoad{in: in, write: 8 << 10, sockbuf: 57344, warmBytes: 16 << 20, secure: true}, nil
	case "churn":
		return &churnLoad{in: in}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// inputs is everything the seed decides: payload bytes, SA keys and
// the PF_KEY writer's SPI sequence.
type inputs struct {
	pat      *pattern
	ahKey    []byte // hmac-sha256
	espKey   []byte // aes-gcm: 16-byte key and 4-byte salt
	decoyKey []byte
	spiSeed  int64
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{pat: newPattern(rng)}
	in.ahKey = randBytes(rng, 32)
	in.espKey = randBytes(rng, 20)
	in.decoyKey = randBytes(rng, 32)
	in.spiSeed = rng.Int63()
	return in
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// listen opens a listening IPv6 stream socket on port; it accepts
// IPv4 peers as v4-mapped addresses too.
func listen(s *bsd6.Stack, port uint16, sockbuf int, secure bool) (*bsd6.Socket, error) {
	ln, err := s.NewSocket(bsd6.AFInet6, bsd6.SockStream)
	if err != nil {
		return nil, err
	}
	if err := tune(ln, sockbuf, secure); err != nil {
		return nil, err
	}
	if err := ln.Bind(bsd6.Sockaddr6{Family: bsd6.AFInet6, Port: port}); err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	if err := ln.Listen(16); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return ln, nil
}

// tune applies socket buffer sizes and, for secure sockets, requires
// AH and transport-mode ESP (paper Table 5 "Both").
func tune(s *bsd6.Socket, sockbuf int, secure bool) error {
	if sockbuf > 0 {
		s.SetBuffers(sockbuf, sockbuf)
	}
	if !secure {
		return nil
	}
	if err := s.SetSecurity(bsd6.SoSecurityAuthentication, bsd6.LevelRequire); err != nil {
		return err
	}
	return s.SetSecurity(bsd6.SoSecurityEncryptTrans, bsd6.LevelRequire)
}

// rrLoad is the paper's Table 1 request/response test: one client on
// one persistent IPv6 TCP connection sends 64 bytes and waits for the
// echo (closed loop).  It prices one packet through every layer with
// nothing in the way: socket wakeups, the netisr queue crossing,
// ip6/tcp input and output, and demux reads.  GRO/GSO and IPsec are
// bypassed.
type rrLoad struct {
	in          *inputs
	ln, cliSock *bsd6.Socket
	load, serve group
	client      *lane
}

const (
	rrPort     = 7000
	msgSize    = 64
	rrWarmTxns = 5000
)

func (w *rrLoad) params() map[string]any {
	return map[string]any{"clients": 1, "msg_B": msgSize, "family": "inet6", "loop": "closed",
		"warmup_txns": rrWarmTxns}
}

func (w *rrLoad) start(b *bed) error {
	ln, err := listen(b.srv, rrPort, 0, false)
	if err != nil {
		return err
	}
	w.ln = ln
	srv := b.newLane("rr.server", kindAux)
	w.client = b.newLane("rr.client", kindTxn)
	s, err := b.cli.NewSocket(bsd6.AFInet6, bsd6.SockStream)
	if err != nil {
		return err
	}
	w.cliSock = s
	if err := w.client.connect(s, bsd6.Addr6(b.srv6, rrPort)); err != nil {
		return err
	}
	c, err := srv.accept(ln)
	if err != nil {
		return fmt.Errorf("accept: %w", err)
	}
	w.serve.run(func() { serveEcho(srv, c) })
	w.load.run(w.run)
	return nil
}

func (w *rrLoad) warmed(*bed) bool { return w.client.done.Load() >= rrWarmTxns }

func (w *rrLoad) run() {
	l, s := w.client, w.cliSock
	rbuf := make([]byte, msgSize)
	for txn := uint64(1); ; txn++ {
		ph := l.phase()
		if ph == phaseStop {
			return
		}
		want := w.in.pat.at(int64(txn)*msgSize, msgSize)
		tr := l.tracing(ph)
		t0 := time.Now()
		err := l.sendAll(s, want)
		var t1 time.Time
		if tr != nil {
			t1 = time.Now()
		}
		if err == nil {
			err = l.readFull(s, rbuf)
		}
		t2 := time.Now()
		if err != nil {
			// The stream position is lost; this lane cannot go on.
			l.fail(ph, err)
			return
		}
		if err := checkEcho(want, rbuf); err != nil {
			l.fail(ph, err)
			continue
		}
		l.bytes.Add(msgSize)
		l.record(ph, t2.Sub(t0))
		if tr != nil {
			root := tr.id()
			tr.add(0, root, txn, spSend, t0, t1)
			tr.add(0, root, txn, spReadWait, t1, t2)
			tr.add(root, 0, txn, spTxn, t0, t2)
		}
	}
}

func (w *rrLoad) stop(*bed) []string {
	w.load.wait()
	w.cliSock.Close()
	w.serve.wait()
	w.ln.Close()
	return nil
}

// serveEcho echoes everything received on c until end of stream.
func serveEcho(l *lane, c *bsd6.Socket) {
	defer c.Close()
	buf := make([]byte, 64<<10)
	for txn := uint64(1); ; txn++ {
		ph := l.phase()
		tr := l.tracing(ph)
		t0 := time.Now()
		n, err := l.read(c, buf)
		if errors.Is(err, core.ErrClosedSock) {
			return
		}
		if err != nil {
			l.fail(ph, err)
			return
		}
		t1 := time.Now()
		if err := l.sendAll(c, buf[:n]); err != nil {
			l.fail(ph, err)
			return
		}
		l.done.Add(1)
		if tr != nil {
			t2 := time.Now()
			root := tr.id()
			tr.add(0, root, txn, spSrvRead, t0, t1)
			tr.add(0, root, txn, spSrvSend, t1, t2)
			tr.add(root, 0, txn, spTxn, t0, t2)
		}
	}
}

// bulkLoad is a one-connection IPv6 TCP stream from a sender to a
// verifying sink.  Plain, it is paper Table 3 (64 KiB writes, 256 KiB
// socket buffers), where per-byte cost dominates: GSO/GRO, checksums,
// mbuf copies and header prediction.  Secure, it is Table 5 "Both"
// (8 KiB writes, 57,344-byte buffers, AH hmac-sha256 + transport ESP
// aes-gcm) over a 1,000-entry association table, with a PF_KEY writer
// adding and deleting unrelated associations on a fixed schedule
// beside the per-packet lookups: crypto dominates and GSO is off.
//
// A transaction is one write: its latency runs from the start of the
// Send call to the moment the sink has verified its last byte.
type bulkLoad struct {
	in        *inputs
	write     int
	sockbuf   int
	warmBytes int64
	secure    bool

	ln, snd      *bsd6.Socket
	load, serve  group
	sender, sink *lane
	sent         atomic.Int64 // bytes queued by completed sends
	starts       [startRing]atomic.Int64
	finalErr     error // end-of-stream check, set by the sink before it returns
}

const (
	bulkPort = 7200
	// startRing holds the send start times of the writes in flight;
	// socket buffers bound those to a few dozen.
	startRing = 1024

	// The PF_KEY writer issues one message every keyPeriod, alternating
	// engines; on each engine it alternately adds a fresh association
	// and deletes the one it added before.
	keyPeriod = time.Millisecond
	// saTable is the association-table size of each secure stack.
	saTable = 1000
)

func (w *bulkLoad) params() map[string]any {
	p := map[string]any{"connections": 1, "write_B": w.write, "sockbuf_B": w.sockbuf,
		"family": "inet6", "warmup_B": w.warmBytes}
	if w.secure {
		p["ah"] = "hmac-sha256"
		p["esp"] = "aes-gcm transport"
		p["sa_table"] = saTable
		p["pfkey_writer"] = fmt.Sprintf("open loop, 1 message per %v, add/delete alternating", keyPeriod)
	}
	return p
}

func (w *bulkLoad) start(b *bed) error {
	if w.secure {
		if err := installSAs(b, w.in); err != nil {
			return err
		}
	}
	ln, err := listen(b.srv, bulkPort, w.sockbuf, w.secure)
	if err != nil {
		return err
	}
	w.ln = ln
	w.sink = b.newLane("bulk.sink", kindTxn)
	w.sender = b.newLane("bulk.sender", kindAux)
	s, err := b.cli.NewSocket(bsd6.AFInet6, bsd6.SockStream)
	if err != nil {
		return err
	}
	w.snd = s
	if err := tune(s, w.sockbuf, w.secure); err != nil {
		return err
	}
	if err := w.sender.connect(s, bsd6.Addr6(b.srv6, bulkPort)); err != nil {
		return err
	}
	c, err := w.sink.accept(ln)
	if err != nil {
		return fmt.Errorf("accept: %w", err)
	}
	if err := tune(c, w.sockbuf, false); err != nil {
		return err
	}
	w.serve.run(func() { w.runSink(b, c) })
	w.load.run(func() { w.runSender(b) })
	if w.secure {
		kl := b.newLane("key.writer", kindKey)
		w.load.run(func() { runKeyWriter(b, kl, w.in) })
	}
	return nil
}

func (w *bulkLoad) warmed(*bed) bool { return w.sink.bytes.Load() >= w.warmBytes }

// rootID is the id of the txn span of write k, recorded by the sink;
// the sender's spans name it as their parent.
func rootID(sink *lane, k int64) uint64 { return sink.tr.lane<<48 | 1<<47 | uint64(k) }

func (w *bulkLoad) runSender(b *bed) {
	l, s := w.sender, w.snd
	for k := int64(0); ; k++ {
		ph := l.phase()
		if ph == phaseStop {
			return
		}
		chunk := w.in.pat.at(k*int64(w.write), w.write)
		t0 := time.Now()
		w.starts[k%startRing].Store(int64(t0.Sub(b.epoch)))
		if err := l.sendAll(s, chunk); err != nil {
			l.fail(ph, err)
			return
		}
		w.sent.Add(int64(w.write))
		l.done.Add(1)
		if tr := l.tracing(ph); tr != nil {
			tr.add(0, rootID(w.sink, k+1), uint64(k+1), spSend, t0, time.Now())
		}
	}
}

func (w *bulkLoad) runSink(b *bed, c *bsd6.Socket) {
	l := w.sink
	defer c.Close()
	buf := make([]byte, 64<<10)
	sc := streamCheck{pt: w.in.pat}
	var next int64 // the write whose last byte the sink awaits
	for {
		ph := l.phase()
		t0 := time.Now()
		n, err := l.read(c, buf)
		if errors.Is(err, core.ErrClosedSock) {
			// The sender has returned and closed: w.sent is final.
			w.finalErr = sc.finish(w.sent.Load())
			return
		}
		if err != nil {
			l.fail(ph, err)
			return
		}
		t1 := time.Now()
		if err := sc.consume(buf[:n]); err != nil {
			l.fail(ph, err)
		} else {
			l.bytes.Add(int64(n))
		}
		tr := l.tracing(ph)
		if tr != nil {
			tr.add(0, rootID(l, next+1), uint64(next+1), spReadWait, t0, t1)
		}
		for (next+1)*int64(w.write) <= sc.off {
			start := b.epoch.Add(time.Duration(w.starts[next%startRing].Load()))
			l.record(ph, t1.Sub(start))
			if tr != nil {
				tr.add(rootID(l, next+1), 0, uint64(next+1), spTxn, start, t1)
			}
			next++
		}
	}
}

func (w *bulkLoad) stop(*bed) []string {
	w.load.wait()
	w.snd.Close()
	w.serve.wait()
	w.ln.Close()
	if w.finalErr != nil {
		return []string{w.finalErr.Error()}
	}
	return nil
}

// installSAs fills both association tables to saTable entries: AH and
// transport ESP in each direction for the measured connection, plus
// decoys for unrelated destinations, which load the SPI index and the
// outbound destination index without ever matching.
func installSAs(b *bed, in *inputs) error {
	for _, s := range []*bsd6.Stack{b.cli, b.srv} {
		sas := []*bsd6.SA{
			{SPI: 0x100, Src: b.cli6, Dst: b.srv6, Proto: bsd6.ProtoAH, AuthAlg: "hmac-sha256", AuthKey: in.ahKey},
			{SPI: 0x101, Src: b.srv6, Dst: b.cli6, Proto: bsd6.ProtoAH, AuthAlg: "hmac-sha256", AuthKey: in.ahKey},
			{SPI: 0x200, Src: b.cli6, Dst: b.srv6, Proto: bsd6.ProtoESPTransport, EncAlg: "aes-gcm", EncKey: in.espKey},
			{SPI: 0x201, Src: b.srv6, Dst: b.cli6, Proto: bsd6.ProtoESPTransport, EncAlg: "aes-gcm", EncKey: in.espKey},
		}
		for i := 0; len(sas) < saTable; i++ {
			sas = append(sas, &bsd6.SA{SPI: uint32(0x10000 + i), Dst: unrelatedDst(0xffff, uint32(i)),
				Proto: bsd6.ProtoAH, AuthAlg: "hmac-sha256", AuthKey: in.decoyKey})
		}
		for _, sa := range sas {
			if err := s.Keys.Add(sa); err != nil {
				return fmt.Errorf("install SA %#x: %w", sa.SPI, err)
			}
		}
	}
	return nil
}

// unrelatedDst is an address under 2001:db8:<net>::/48, a prefix no
// stack of the benchmark uses.
func unrelatedDst(net uint16, host uint32) bsd6.IP6 {
	a := bsd6.IP6{0x20, 0x01, 0x0d, 0xb8, byte(net >> 8), byte(net)}
	a[12], a[13], a[14], a[15] = byte(host>>24), byte(host>>16), byte(host>>8), byte(host)
	return a
}

// runKeyWriter is the open-loop PF_KEY writer of esp-bulk.  Message i
// is due at keyPeriod*i after the start; each message's lateness
// against that schedule is recorded as the lane's latency.
func runKeyWriter(b *bed, l *lane, in *inputs) {
	socks := [2]*bsd6.KeySocket{b.cli.PFKey(), b.srv.PFKey()}
	defer socks[0].Close()
	defer socks[1].Close()
	rng := rand.New(rand.NewSource(in.spiSeed))
	var live [2]*bsd6.SA
	t0 := time.Now()
	for i := int64(0); ; i++ {
		due := t0.Add(time.Duration(i) * keyPeriod)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph := l.phase()
		if ph == phaseStop {
			return
		}
		e := i % 2
		start := time.Now()
		var reply bsd6.KeyMessage
		name := spKeyAdd
		if live[e] == nil {
			// SPIs from 0x01000000 up never meet the measured or decoy
			// associations, and an engine holds at most one writer
			// association at a time, so no add can collide.
			spi := rng.Uint32()&0x7effffff | 0x01000000
			sa := &bsd6.SA{SPI: spi, Dst: unrelatedDst(0xfffe, spi), Proto: bsd6.ProtoAH,
				AuthAlg: "hmac-sha256", AuthKey: in.decoyKey}
			reply = socks[e].Send(bsd6.KeyMessage{Type: key.MsgAdd, SA: sa})
			live[e] = sa
		} else {
			name = spKeyDelete
			reply = socks[e].Send(bsd6.KeyMessage{Type: key.MsgDelete, SA: live[e]})
			live[e] = nil
		}
		end := time.Now()
		if reply.Err != nil {
			l.fail(ph, fmt.Errorf("%v: %w", reply.Type, reply.Err))
			continue
		}
		l.record(ph, start.Sub(due))
		if tr := l.tracing(ph); tr != nil {
			tr.add(0, 0, uint64(i+1), name, start, end)
		}
	}
}

// churnLoad is two closed-loop clients, one over IPv4 and one over
// IPv6, each connecting, exchanging one 64-byte echo and closing.  It
// is the same PCB/TCP code as rr used for writes rather than reads:
// attach/bind/detach, ephemeral ports, the handshake, the SYN backlog
// and a TIME_WAIT table held at its cap.  It is the only workload that
// measures the ipv4 layer.
type churnLoad struct {
	in          *inputs
	ln          *bsd6.Socket
	load, serve group
	clients     []*lane
}

const churnPort = 7100

func (w *churnLoad) params() map[string]any {
	return map[string]any{"clients": 2, "families": "inet+inet6", "msg_B": msgSize, "loop": "closed",
		"warmup": "until the TIME_WAIT table is at its cap"}
}

func (w *churnLoad) start(b *bed) error {
	ln, err := listen(b.srv, churnPort, 0, false)
	if err != nil {
		return err
	}
	w.ln = ln
	for i := 0; i < 2; i++ {
		l := b.newLane(fmt.Sprintf("churn.server%d", i), kindAux)
		w.serve.run(func() { w.runServer(l) })
	}
	v4 := b.newLane("churn.client4", kindTxn)
	v6 := b.newLane("churn.client6", kindTxn)
	w.clients = []*lane{v4, v6}
	w.load.run(func() { w.runClient(b, v4, bsd6.AFInet, bsd6.Addr4(b.srv4, churnPort), 0) })
	w.load.run(func() { w.runClient(b, v6, bsd6.AFInet6, bsd6.Addr6(b.srv6, churnPort), patternLen/2) })
	return nil
}

func (w *churnLoad) warmed(b *bed) bool {
	if w.clients[0].done.Load()+w.clients[1].done.Load() < 1024 {
		return false
	}
	tw := b.cli.Snapshot().Limits.TimeWait
	return tw.Cur >= tw.Max
}

func (w *churnLoad) runClient(b *bed, l *lane, fam bsd6.Family, dst bsd6.Sockaddr6, off int64) {
	rbuf := make([]byte, msgSize)
	for txn := uint64(1); ; txn++ {
		ph := l.phase()
		if ph == phaseStop {
			return
		}
		want := w.in.pat.at(off+int64(txn)*msgSize, msgSize)
		tr := l.tracing(ph)
		t0 := time.Now()
		s, err := b.cli.NewSocket(fam, bsd6.SockStream)
		if err != nil {
			l.fail(ph, err)
			continue
		}
		var t [4]time.Time
		err = l.connect(s, dst)
		t[0] = time.Now()
		if err == nil {
			err = l.sendAll(s, want)
			t[1] = time.Now()
		}
		if err == nil {
			err = l.readFull(s, rbuf)
			t[2] = time.Now()
		}
		if err == nil {
			err = checkEcho(want, rbuf)
		}
		if cerr := s.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
		t[3] = time.Now()
		if err != nil {
			l.fail(ph, err)
			continue
		}
		l.bytes.Add(msgSize)
		l.record(ph, t[3].Sub(t0))
		if tr != nil {
			root := tr.id()
			tr.add(0, root, txn, spConnect, t0, t[0])
			tr.add(0, root, txn, spSend, t[0], t[1])
			tr.add(0, root, txn, spReadWait, t[1], t[2])
			tr.add(0, root, txn, spClose, t[2], t[3])
			tr.add(root, 0, txn, spTxn, t0, t[3])
		}
	}
}

// runServer accepts connections one at a time: it echoes the 64-byte
// request, waits for the client's FIN and closes, so the client is the
// side that enters TIME_WAIT.
func (w *churnLoad) runServer(l *lane) {
	buf := make([]byte, msgSize)
	for txn := uint64(1); ; txn++ {
		ph := l.phase()
		tr := l.tracing(ph)
		t0 := time.Now()
		c, err := l.accept(w.ln)
		if err != nil {
			return // listener closed
		}
		var t [4]time.Time
		t[0] = time.Now()
		err = l.readFull(c, buf)
		t[1] = time.Now()
		if err == nil {
			err = l.sendAll(c, buf)
			t[2] = time.Now()
		}
		if err == nil {
			var n int
			n, err = l.read(c, buf)
			if errors.Is(err, core.ErrClosedSock) {
				err = nil
			} else if err == nil {
				err = fmt.Errorf("%d bytes past the request", n)
			}
		}
		c.Close()
		t[3] = time.Now()
		if err != nil {
			l.fail(ph, err)
			continue
		}
		l.done.Add(1)
		if tr != nil {
			root := tr.id()
			tr.add(0, root, txn, spAccept, t0, t[0])
			tr.add(0, root, txn, spSrvRead, t[0], t[1])
			tr.add(0, root, txn, spSrvSend, t[1], t[2])
			tr.add(0, root, txn, spSrvClose, t[2], t[3])
			tr.add(root, 0, txn, spTxn, t0, t[3])
		}
	}
}

func (w *churnLoad) stop(*bed) []string {
	w.load.wait()
	w.ln.Close()
	w.serve.wait()
	return nil
}
