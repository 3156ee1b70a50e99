package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/netif"
	"bsd6/internal/testnet"
)

// TestNoLostWakeupRoundTrips runs 64-byte echo round trips on one
// connection between two real-clock stacks.  A round trip takes tens
// of microseconds, and every blocking call carries a deadline
// thousands of times longer, so a call that times out slept through a
// wakeup: TCP input delivered the data and ran the socket's wakeup
// after the call found its buffer empty but before it started
// waiting.  That gap is narrow, so the test needs many trips to catch
// a loss.
func TestNoLostWakeupRoundTrips(t *testing.T) {
	const deadline = 2 * time.Second
	trips := 100000
	if testing.Short() {
		trips = 10000
	}
	hub := netif.NewHub()
	a := core.NewStack("a", core.Options{})
	b := core.NewStack("b", core.Options{})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	a.AttachLink(hub, testnet.MacA, 1500)
	bIf := b.AttachLink(hub, testnet.MacB, 1500)
	bLL, ok := bIf.LinkLocal6(time.Now())
	if !ok {
		t.Fatal("no link-local address")
	}

	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- echoServe(l, deadline) }()
	if err := echoClient(a, core.Addr6(bLL, 7), trips, deadline); err != nil {
		t.Error(err)
	}
	if err := <-served; err != nil {
		t.Error(err)
	}
}

// echoServe accepts one connection and echoes 64-byte messages until
// the client closes.
func echoServe(l *core.Socket, timeout time.Duration) error {
	srv, err := l.Accept(timeout)
	if err != nil {
		return fmt.Errorf("accept: %w", err)
	}
	defer srv.Close()
	buf := make([]byte, 64)
	for {
		if err := readInto(srv, buf, timeout); err != nil {
			if errors.Is(err, core.ErrClosedSock) {
				return nil // the client closed after its last trip
			}
			return fmt.Errorf("server read: %w", err)
		}
		if _, err := srv.Send(buf, timeout); err != nil {
			return fmt.Errorf("server send: %w", err)
		}
	}
}

// echoClient connects and runs trips round trips of a 64-byte message.
func echoClient(s *core.Stack, dst core.Sockaddr6, trips int, timeout time.Duration) error {
	c, err := s.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		return fmt.Errorf("socket: %w", err)
	}
	defer c.Close()
	if err := c.Connect(dst, timeout); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	msg, buf := make([]byte, 64), make([]byte, 64)
	for i := 0; i < trips; i++ {
		msg[0], msg[1] = byte(i), byte(i>>8)
		if _, err := c.Send(msg, timeout); err != nil {
			return fmt.Errorf("round trip %d: send: %w", i, err)
		}
		if err := readInto(c, buf, timeout); err != nil {
			return fmt.Errorf("round trip %d: read: %w", i, err)
		}
		if buf[0] != msg[0] || buf[1] != msg[1] {
			return fmt.Errorf("round trip %d: echo mismatch", i)
		}
	}
	return nil
}

func readInto(s *core.Socket, p []byte, timeout time.Duration) error {
	for got := 0; got < len(p); {
		n, err := s.ReadInto(p[got:], timeout)
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}
