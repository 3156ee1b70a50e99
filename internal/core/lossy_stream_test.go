package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/testnet"
)

// TestLossyLinkTCPStream moves a quarter megabyte each way over a link
// that loses one frame in fifty, with poison-on-free on.  Every byte
// must arrive intact in both directions, so a buffer reused after its
// free would surface as a corrupt stream; and the loss must actually
// have forced retransmissions, or the recovery path went unexercised.
// The test checks delivered bytes and counters, not frame order, which
// depends on goroutine scheduling.
func TestLossyLinkTCPStream(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)

	e := newEnv(t)
	hub := e.hub()
	hub.SetFaults(netif.Faults{Latency: 2 * time.Millisecond, Loss: 0.02})
	hub.SetSeed(42)
	mk := func(name string) *core.Stack {
		s := core.NewStack(name, core.Options{Clock: e.clock})
		t.Cleanup(s.Close)
		e.probes = append(e.probes, s.Pending)
		return s
	}
	cli, srv := mk("cli"), mk("srv")
	cli.AttachLink(hub, testnet.MacA, 1500)
	srv.AttachLink(hub, testnet.MacB, 1500)
	e.start()

	l, err := srv.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	l.SetBuffers(1<<20, 1<<20)
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 9009}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	body := islandBody(256 << 10)
	back := bytes.Clone(body)
	for i, j := 0, len(back)-1; i < j; i, j = i+1, j-1 {
		back[i], back[j] = back[j], back[i]
	}

	srvErr := make(chan error, 1)
	go func() {
		s, err := acceptRetry(l)
		if err != nil {
			srvErr <- err
			return
		}
		got, err := readFull(s, len(body))
		if err != nil {
			srvErr <- err
			return
		}
		if !bytes.Equal(got, body) {
			srvErr <- fmt.Errorf("forward stream corrupted (%d bytes)", len(got))
			return
		}
		_, err = s.Send(back, 5*time.Minute)
		srvErr <- err
	}()

	c, err := cli.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBuffers(1<<20, 1<<20)
	if err := c.Connect(core.Addr6(linkLocal(srv), 9009), 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(body, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	got, err := readFull(c, len(back))
	if err != nil {
		t.Fatalf("reverse: %v", err)
	}
	if !bytes.Equal(got, back) {
		t.Fatalf("reverse stream corrupted (%d bytes)", len(got))
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}

	if n := cli.Snapshot().TCP["SndRexmit"] + srv.Snapshot().TCP["SndRexmit"]; n == 0 {
		t.Error("lossy link induced no retransmissions; loss model inert")
	}
}

// The helpers below wait in short steps and retry a timeout.  The
// clock driver may run simulated time past a deadline while the
// waiting goroutine is descheduled, and a wakeup can land between a
// socket's emptiness check and its wait; either costs a retry here,
// not the test.  A wall-clock bound still fails a stream that stalls.
const (
	retryStep  = 50 * time.Millisecond
	retryBound = time.Minute
)

func acceptRetry(l *core.Socket) (*core.Socket, error) {
	for stop := time.Now().Add(retryBound); ; {
		s, err := l.Accept(retryStep)
		if errors.Is(err, core.ErrTimeoutSock) && time.Now().Before(stop) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("accept: %w", err)
		}
		return s, nil
	}
}

func readFull(s *core.Socket, n int) ([]byte, error) {
	var got []byte
	for stop := time.Now().Add(retryBound); len(got) < n; {
		chunk, err := s.Recv(1<<16, retryStep)
		if errors.Is(err, core.ErrTimeoutSock) && time.Now().Before(stop) {
			continue
		}
		if err != nil {
			return got, fmt.Errorf("recv at %d: %w", len(got), err)
		}
		got = append(got, chunk...)
	}
	return got, nil
}
