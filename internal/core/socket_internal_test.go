package core

import (
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
)

// TestSecurityOptsIgnoresSocketLock pins the lock order between a
// socket and TCP.  Socket calls such as Connect hold the socket's mu
// while they take the TCP lock, and TCP input reads the socket's
// security options through the security module while it holds the TCP
// lock.  If that read waited for mu, the two would deadlock.
func TestSecurityOptsIgnoresSocketLock(t *testing.T) {
	s := NewStack("s", Options{NoTimers: true})
	defer s.Close()
	sock, err := s.NewSocket(inet.AFInet6, SockStream)
	if err != nil {
		t.Fatal(err)
	}
	if err := sock.SetSecurity(SoSecurityAuthentication, ipsec.LevelRequire); err != nil {
		t.Fatal(err)
	}
	sock.mu.Lock()
	defer sock.mu.Unlock()
	got := make(chan ipsec.SockOpts, 1)
	go func() { got <- s.Sec.SocketOpts(sock) }()
	select {
	case o := <-got:
		if o.Auth != ipsec.LevelRequire {
			t.Fatalf("security options = %+v, want Auth require", o)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reading security options waited for the socket lock")
	}
}
