package core_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/testnet"
)

// TestCloseFreesQueuedFrames closes two stacks while UDP blasts cross
// between them, then keeps sending into the closed stacks.  Frames
// still queued for netisr when Close runs, and frames a stack is handed
// after it closed, must all go back to the pool.  No driver advances
// the virtual clock, so no neighbor entry can expire and park a
// datagram in its hold slot while the stacks close.
func TestCloseFreesQueuedFrames(t *testing.T) {
	base := mbuf.Outstanding()
	e := newEnv(t)
	hub := e.hub()
	a, b := e.stack("a"), e.stack("b")
	a.AttachLink(hub, testnet.MacA, 1500)
	b.AttachLink(hub, testnet.MacB, 1500)
	dst := map[*core.Stack]core.Sockaddr6{
		a: core.Addr6(linkLocal(b), 700),
		b: core.Addr6(linkLocal(a), 700),
	}
	payload := make([]byte, 1200)
	socks := make(map[*core.Stack]*core.Socket)
	for _, s := range []*core.Stack{a, b} {
		sock, err := s.NewSocket(inet.AFInet6, core.SockDgram)
		if err != nil {
			t.Fatal(err)
		}
		if err := sock.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 700}); err != nil {
			t.Fatal(err)
		}
		socks[s] = sock
	}
	// Resolve both neighbors first, so the blast below is never parked
	// in a neighbor cache's hold slot.  With the clock stopped the
	// deadline never passes; the arriving datagram ends each wait.
	for s, sock := range socks {
		if err := sock.SendTo([]byte("warm"), dst[s]); err != nil {
			t.Fatal(err)
		}
	}
	for _, sock := range socks {
		if _, _, err := sock.RecvFrom(64, time.Minute); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
	}

	blast := func(s *core.Stack, n int) {
		for i := 0; i < n; i++ {
			socks[s].SendTo(payload, dst[s])
		}
	}
	var wg sync.WaitGroup
	started := make(chan struct{}, 2)
	for _, s := range []*core.Stack{a, b} {
		wg.Add(1)
		go func(s *core.Stack) {
			defer wg.Done()
			blast(s, 200)
			started <- struct{}{}
			blast(s, 2000)
		}(s)
	}
	<-started
	<-started
	a.Close()
	b.Close()
	wg.Wait()
	blast(a, 100)
	blast(b, 100)

	if got := mbuf.Outstanding(); got != base {
		t.Fatalf("%d pool bytes outstanding after both stacks closed, want %d", got, base)
	}
	if a.Pending() != 0 || b.Pending() != 0 {
		t.Fatalf("pending frames after close: a=%d b=%d", a.Pending(), b.Pending())
	}
}

// TestAcceptRacesDataArrival lets the client stream data before the
// server calls Accept and keeps the stream arriving while Accept hands
// the child connection to its new socket.  Segment input for the child
// reads the wakeup hook and the socket back pointer that Accept
// installs, so under -race the handoff must be ordered by the TCP lock.
// The virtual clock stays stopped: a lossless handshake and transfer
// need no timer, and no socket deadline can then pass while a
// goroutine is merely slow to run.
func TestAcceptRacesDataArrival(t *testing.T) {
	e := newEnv(t)
	hub := e.hub()
	a, b := e.stack("a"), e.stack("b")
	a.AttachLink(hub, testnet.MacA, 1500)
	b.AttachLink(hub, testnet.MacB, 1500)
	l, err := b.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	l.SetBuffers(1<<20, 1<<20)
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 9010}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}

	body := islandBody(256 << 10)
	cliErr := make(chan error, 1)
	go func() {
		c, err := a.NewSocket(inet.AFInet6, core.SockStream)
		if err != nil {
			cliErr <- err
			return
		}
		c.SetBuffers(1<<20, 1<<20)
		if err := c.Connect(core.Addr6(linkLocal(b), 9010), time.Minute); err != nil {
			cliErr <- err
			return
		}
		_, err = c.Send(body, time.Minute)
		cliErr <- err
	}()

	// Accept only once the child holds data, then wait for the rest of
	// the stream without touching the server stack's locks, so the
	// segments arriving meanwhile are ordered against the handoff by
	// Accept alone.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	waitFor("first data", func() bool { return b.TCP.Stats.RcvByte.Get() > 0 })
	s, err := acceptRetry(l)
	if err != nil {
		t.Fatal(err)
	}
	waitFor("whole stream", func() bool { return b.TCP.Stats.RcvByte.Get() >= uint64(len(body)) })
	got, err := readFull(s, len(body))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("stream corrupted: %d bytes received", len(got))
	}
	if err := <-cliErr; err != nil {
		t.Fatal(err)
	}
}
