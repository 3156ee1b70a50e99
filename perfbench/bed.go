package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bsd6"
	"bsd6/internal/core"
	"bsd6/internal/tcp"
)

// Phases of one set-up.  Every load goroutine reads the phase when an
// operation starts and books the operation's latency, failures and
// stalls under it.
const (
	phaseWarm    int32 = iota // warm-up, part of set-up
	phaseMeasure              // measured, untraced
	phaseTraced               // measured, spans recorded
	phaseStop                 // load goroutines finish their operation and return
	nPhases
)

// stallAfter is the deadline of every blocking socket call the load
// makes.  A socket read that checks for data, releases its lock and
// then sleeps can miss a wakeup that fires in between and sleep to its
// deadline; with a short deadline each such miss costs a bounded wait,
// is counted as a stall and the call is retried, and the operation's
// real latency (including the wait) stays in the distribution.
const stallAfter = 5 * time.Millisecond

// opLimit bounds one operation, stalls and retries included; past it
// the operation counts as never completed.
const opLimit = 2 * time.Second

var errNeverCompleted = errors.New("operation never completed")

// bed is one set-up: two stacks on one simulated link with default
// Options, and the lanes of the workload running over them.
type bed struct {
	cli, srv   *bsd6.Stack
	cIf, sIf   *bsd6.Interface
	cli6, srv6 bsd6.IP6
	cli4, srv4 bsd6.IP4

	phase   atomic.Int32
	slice   atomic.Int32 // index of the current slice of the measured phase
	nSlices int          // slices per measured phase
	lanes   []*lane
	epoch   time.Time // span timestamps count from here
}

func newBed(nSlices int) (*bed, error) {
	b := &bed{epoch: time.Now(), nSlices: nSlices}
	hub := bsd6.NewHub()
	b.cli = bsd6.NewStack("cli", bsd6.Options{})
	b.srv = bsd6.NewStack("srv", bsd6.Options{})
	b.cIf = b.cli.AttachLink(hub, bsd6.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	b.sIf = b.srv.AttachLink(hub, bsd6.LinkAddr{2, 0, 0, 0, 0, 2}, 1500)
	b.cli4, b.srv4 = bsd6.IP4{10, 0, 0, 1}, bsd6.IP4{10, 0, 0, 2}
	b.cli.ConfigureV4(b.cIf, b.cli4, 24)
	b.srv.ConfigureV4(b.sIf, b.srv4, 24)
	var ok1, ok2 bool
	b.cli6, ok1 = b.cIf.LinkLocal6(time.Now())
	b.srv6, ok2 = b.sIf.LinkLocal6(time.Now())
	if !ok1 || !ok2 {
		b.close()
		return nil, errors.New("link-local addresses not configured")
	}
	return b, nil
}

func (b *bed) close() {
	b.cli.Close()
	b.srv.Close()
}

// laneKind says what a lane's completed operations count as.
type laneKind int

const (
	kindTxn laneKind = iota // completes the workload's transactions
	kindAux                 // serves them, or feeds a sink
	kindKey                 // PF_KEY writer
)

// lane is one goroutine of a workload with everything it measures.
// Atomic fields are read by the main goroutine while the lane runs;
// lat and tr belong to the lane's goroutine and are read only after it
// has returned.  Both are allocated in full with the lane, so neither
// grows the heap, and with it the garbage collector's pacing, while the
// stack is measured, traced or not.
type lane struct {
	name string
	kind laneKind
	b    *bed

	done  atomic.Int64 // operations completed and verified
	bytes atomic.Int64 // payload bytes verified

	fails       [nPhases]atomic.Int64
	readStalls  [nPhases]atomic.Int64
	writeStalls [nPhases]atomic.Int64
	lat         [nPhases][]*hist // per-slice operation latency, ns; nil outside measurement
	tr          *tracer
	failMsg     atomic.Pointer[string] // first failure, for the report
}

func (b *bed) newLane(name string, kind laneKind) *lane {
	l := &lane{name: name, kind: kind, b: b}
	for _, ph := range []int32{phaseMeasure, phaseTraced} {
		l.lat[ph] = make([]*hist, b.nSlices)
		for i := range l.lat[ph] {
			l.lat[ph][i] = new(hist)
		}
	}
	l.tr = newTracer(b.epoch, uint64(len(b.lanes)+1))
	b.lanes = append(b.lanes, l)
	return l
}

func (l *lane) phase() int32 { return l.b.phase.Load() }

// tracing returns the lane's tracer when phase ph records spans.
func (l *lane) tracing(ph int32) *tracer {
	if ph == phaseTraced {
		return l.tr
	}
	return nil
}

// fail books a failed operation under phase ph.
func (l *lane) fail(ph int32, err error) {
	l.fails[ph].Add(1)
	msg := fmt.Sprintf("%s: %v", l.name, err)
	l.failMsg.CompareAndSwap(nil, &msg)
}

// record books a completed operation of latency d under phase ph and
// the current slice.
func (l *lane) record(ph int32, d time.Duration) {
	if hs := l.lat[ph]; hs != nil {
		hs[min(int(l.b.slice.Load()), len(hs)-1)].record(int64(d))
	}
	l.done.Add(1)
}

// latency merges the latencies phase ph booked in slice i (all slices
// when i < 0) over the lanes of kind k.
func latency(lanes []*lane, k laneKind, ph int32, i int) *hist {
	h := new(hist)
	for _, l := range lanes {
		if l.kind != k {
			continue
		}
		for j, s := range l.lat[ph] {
			if i < 0 || i == j {
				h.merge(s)
			}
		}
	}
	return h
}

// readFull reads exactly len(p) bytes from a stream socket.
func (l *lane) readFull(s *bsd6.Socket, p []byte) error {
	start := time.Now()
	for got := 0; got < len(p); {
		n, err := s.ReadInto(p[got:], stallAfter)
		got += n
		if err != nil {
			if !errors.Is(err, core.ErrTimeoutSock) {
				return fmt.Errorf("read: %w", err)
			}
			l.readStalls[l.phase()].Add(1)
			if time.Since(start) > opLimit {
				return fmt.Errorf("read: %w", errNeverCompleted)
			}
		}
	}
	return nil
}

// read reads what is available into p, waiting for at least one byte.
// It returns core.ErrClosedSock at end of stream.
func (l *lane) read(s *bsd6.Socket, p []byte) (int, error) {
	start := time.Now()
	for {
		n, err := s.ReadInto(p, stallAfter)
		if err == nil || !errors.Is(err, core.ErrTimeoutSock) {
			return n, err
		}
		l.readStalls[l.phase()].Add(1)
		if time.Since(start) > opLimit {
			return 0, fmt.Errorf("read: %w", errNeverCompleted)
		}
	}
}

// sendAll queues all of p on a stream socket.
func (l *lane) sendAll(s *bsd6.Socket, p []byte) error {
	start := time.Now()
	for len(p) > 0 {
		n, err := s.Send(p, stallAfter)
		p = p[n:]
		if err != nil {
			if !errors.Is(err, core.ErrTimeoutSock) {
				return fmt.Errorf("send: %w", err)
			}
			l.writeStalls[l.phase()].Add(1)
			if time.Since(start) > opLimit {
				return fmt.Errorf("send: %w", errNeverCompleted)
			}
		}
	}
	return nil
}

// connect completes a stream connection.  Connect cannot be reissued
// once the handshake is under way, so after a deadline expiry the
// connection state is polled instead.
func (l *lane) connect(s *bsd6.Socket, sa bsd6.Sockaddr6) error {
	err := s.Connect(sa, stallAfter)
	if err == nil || !errors.Is(err, core.ErrTimeoutSock) {
		return err
	}
	l.writeStalls[l.phase()].Add(1)
	start := time.Now()
	for {
		c := s.Conn()
		if c.State() == tcp.StateEstablished {
			return nil
		}
		if err := c.Err(); err != nil {
			return fmt.Errorf("connect: %w", err)
		}
		if time.Since(start) > opLimit {
			return fmt.Errorf("connect: %w", errNeverCompleted)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// accept waits for the next connection on a listener.  It returns
// core.ErrClosedSock once the listener is closed.
func (l *lane) accept(ln *bsd6.Socket) (*bsd6.Socket, error) {
	for {
		c, err := ln.Accept(stallAfter)
		if err == nil || !errors.Is(err, core.ErrTimeoutSock) {
			return c, err
		}
		l.readStalls[l.phase()].Add(1)
	}
}

// group runs goroutines and waits for them.
type group struct{ wg sync.WaitGroup }

func (g *group) run(fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fn()
	}()
}

func (g *group) wait() { g.wg.Wait() }

// waitFor polls cond until it holds or limit passes.
func waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
