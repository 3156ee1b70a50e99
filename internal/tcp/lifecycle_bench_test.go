package tcp_test

import (
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/tcp"
)

// BenchmarkConnLifecycle prices one short connection from attach to
// close over the simulated link: connect, a 64-byte echo, the client's
// active close and the server's close. The client's TIME_WAIT table,
// capped small enough to fill within one 2MSL of simulated time, is
// held at its cap so every connection evicts a record, and each side
// attaches fresh socket buffers, so the figure carries the per-
// connection costs of buffer sizing and 2MSL eviction.
func BenchmarkConnLifecycle(b *testing.B) {
	s, a, srvNode := tcpPair(b)
	a.tcp.TimeWaitMax = 64
	l := srvNode.tcp.Attach(inet.AFInet6, nil)
	if err := l.Bind(inet.IP6{}, 9300); err != nil {
		b.Fatal(err)
	}
	if err := l.Listen(64); err != nil {
		b.Fatal(err)
	}
	dst := srvNode.LinkLocal(0)
	msg := pattern(64)
	lifecycle := func() {
		c := a.tcp.Attach(inet.AFInet6, nil)
		if err := c.Connect(dst, 9300); err != nil {
			b.Fatalf("connect: %v", err)
		}
		s.waitState(c, tcp.StateEstablished)
		srv := s.acceptOne(l)
		s.sendAll(c, msg)
		s.sendAll(srv, s.recvN(srv, len(msg)))
		s.recvN(c, len(msg))
		c.Close()
		s.recvEOF(srv)
		srv.Close()
		s.recvEOF(c)
		s.waitState(srv, tcp.StateClosed)
	}
	// Warm up past neighbor resolution and until TIME_WAIT is full.
	for i := 0; a.tcp.TimeWaitCount() < a.tcp.TimeWaitLimit(); i++ {
		if i == 1000 {
			b.Fatalf("TIME_WAIT holds %d records after %d connections", a.tcp.TimeWaitCount(), i)
		}
		lifecycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lifecycle()
	}
}
