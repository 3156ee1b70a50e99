package key

import (
	"sync"
	"testing"
	"time"

	"bsd6/internal/inet"
)

func ip6(t *testing.T, s string) inet.IP6 {
	t.Helper()
	a, err := inet.ParseIP6(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mkSA(spi uint32, dst inet.IP6, p SecProto) *SA {
	return &SA{SPI: spi, Dst: dst, Proto: p, AuthAlg: "keyed-md5", AuthKey: []byte("k")}
}

func TestAddGetDelete(t *testing.T) {
	e := NewEngine()
	dst := ip6(t, "2001:db8::2")
	sa := mkSA(0x100, dst, ProtoAH)
	if err := e.Add(sa); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(mkSA(0x100, dst, ProtoAH)); err != ErrExists {
		t.Fatalf("duplicate add: %v", err)
	}
	got, ok := e.GetBySPI(0x100, dst, ProtoAH)
	if !ok || got != sa {
		t.Fatal("GetBySPI")
	}
	if _, ok := e.GetBySPI(0x101, dst, ProtoAH); ok {
		t.Fatal("wrong SPI matched")
	}
	if _, ok := e.GetBySPI(0x100, dst, ProtoESPTransport); ok {
		t.Fatal("wrong proto matched")
	}
	if err := e.Delete(0x100, dst, ProtoAH); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(0x100, dst, ProtoAH); err != ErrNoAssoc {
		t.Fatal("double delete")
	}
}

func TestSPIZeroReserved(t *testing.T) {
	e := NewEngine()
	if err := e.Add(mkSA(0, ip6(t, "::1"), ProtoAH)); err == nil {
		t.Fatal("SPI 0 accepted")
	}
}

func TestGetBySocketShared(t *testing.T) {
	e := NewEngine()
	src, dst := ip6(t, "2001:db8::1"), ip6(t, "2001:db8::2")
	sa := mkSA(0x200, dst, ProtoESPTransport)
	e.Add(sa)
	got, err := e.GetBySocket(src, dst, ProtoESPTransport, nil, false)
	if err != nil || got != sa {
		t.Fatalf("shared lookup: %v %v", got, err)
	}
	// Wrong destination misses.
	if _, err := e.GetBySocket(src, ip6(t, "2001:db8::3"), ProtoESPTransport, nil, false); err != ErrNoAssoc {
		t.Fatalf("miss: %v", err)
	}
}

func TestGetBySocketSrcFilter(t *testing.T) {
	e := NewEngine()
	dst := ip6(t, "2001:db8::2")
	sa := mkSA(0x300, dst, ProtoAH)
	sa.Src = ip6(t, "2001:db8::1")
	e.Add(sa)
	if _, err := e.GetBySocket(ip6(t, "2001:db8::9"), dst, ProtoAH, nil, false); err == nil {
		t.Fatal("src-bound SA matched wrong source")
	}
	if got, err := e.GetBySocket(ip6(t, "2001:db8::1"), dst, ProtoAH, nil, false); err != nil || got != sa {
		t.Fatal("src-bound SA missed right source")
	}
}

func TestUniqueSocketKeys(t *testing.T) {
	// §6.1 level 3 and §3.3: "The current implementation does support
	// both shared (i.e. host-oriented) keys and also unique (i.e.
	// socket-oriented) keys."
	e := NewEngine()
	dst := ip6(t, "2001:db8::2")
	shared := mkSA(0x400, dst, ProtoAH)
	e.Add(shared)
	sock1, sock2 := "socket-1", "socket-2"
	bound := mkSA(0x401, dst, ProtoAH)
	bound.Unique = true
	bound.Socket = sock1
	e.Add(bound)

	// wantUnique: only the bound SA for the right socket qualifies.
	got, err := e.GetBySocket(inet.IP6{}, dst, ProtoAH, sock1, true)
	if err != nil || got != bound {
		t.Fatalf("unique lookup: %v %v", got, err)
	}
	if _, err := e.GetBySocket(inet.IP6{}, dst, ProtoAH, sock2, true); err != ErrNoAssoc {
		t.Fatalf("foreign socket got a unique SA: %v", err)
	}
	// Shared lookup prefers the socket's own bound SA, falls back to
	// shared.
	got, _ = e.GetBySocket(inet.IP6{}, dst, ProtoAH, sock1, false)
	if got != bound {
		t.Fatal("socket-bound SA not preferred")
	}
	got, _ = e.GetBySocket(inet.IP6{}, dst, ProtoAH, sock2, false)
	if got != shared {
		t.Fatal("shared fallback failed")
	}
}

func TestAcquireFlow(t *testing.T) {
	e := NewEngine()
	now := time.Unix(1000, 0)
	e.Now = func() time.Time { return now }
	dst := ip6(t, "2001:db8::2")

	// No daemon: ErrNoAssoc (surfaces as EIPSEC, §3.3).
	if _, err := e.GetBySocket(inet.IP6{}, dst, ProtoAH, nil, false); err != ErrNoAssoc {
		t.Fatalf("no daemon: %v", err)
	}

	// Daemon registers: lookup sends ACQUIRE and reports delayed.
	daemon := e.Open()
	defer daemon.Close()
	daemon.Send(Message{Type: MsgRegister})
	if _, err := e.GetBySocket(inet.IP6{}, dst, ProtoAH, nil, false); err != ErrAcquireDelayed {
		t.Fatalf("with daemon: %v", err)
	}
	select {
	case m := <-daemon.C:
		if m.Type != MsgAcquire || m.SA.Dst != dst || m.SA.Proto != ProtoAH {
			t.Fatalf("acquire message: %+v", m)
		}
	default:
		t.Fatal("no ACQUIRE delivered")
	}
	// Duplicate lookups within the window do not re-ACQUIRE.
	e.GetBySocket(inet.IP6{}, dst, ProtoAH, nil, false)
	if len(daemon.C) != 0 {
		t.Fatal("duplicate ACQUIRE")
	}
	// The daemon answers with an Add; the next lookup succeeds.
	rep := daemon.Send(Message{Type: MsgAdd, SA: mkSA(0x999, dst, ProtoAH)})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if sa, err := e.GetBySocket(inet.IP6{}, dst, ProtoAH, nil, false); err != nil || sa.SPI != 0x999 {
		t.Fatalf("post-add lookup: %v %v", sa, err)
	}
}

func TestLifetimes(t *testing.T) {
	e := NewEngine()
	now := time.Unix(1000, 0)
	e.Now = func() time.Time { return now }
	dst := ip6(t, "2001:db8::2")
	sa := mkSA(0x500, dst, ProtoESPTransport)
	sa.SoftLife = 10 * time.Second
	sa.HardLife = 20 * time.Second
	e.Add(sa)

	daemon := e.Open()
	defer daemon.Close()
	daemon.Register()

	// Soft expiry notifies but keeps the SA usable.
	now = now.Add(11 * time.Second)
	e.SlowTimo()
	m := <-daemon.C
	if m.Type != MsgExpire || m.Hard {
		t.Fatalf("soft expire: %+v", m)
	}
	if _, ok := e.GetBySPI(0x500, dst, ProtoESPTransport); !ok {
		t.Fatal("soft-expired SA unusable")
	}
	// Soft expiry fires once.
	now = now.Add(time.Second)
	e.SlowTimo()
	if len(daemon.C) != 0 {
		t.Fatal("duplicate soft expire")
	}
	// Hard expiry removes it.
	now = now.Add(10 * time.Second)
	e.SlowTimo()
	m = <-daemon.C
	if m.Type != MsgExpire || !m.Hard {
		t.Fatalf("hard expire: %+v", m)
	}
	if _, ok := e.GetBySPI(0x500, dst, ProtoESPTransport); ok {
		t.Fatal("hard-expired SA still usable")
	}
}

func TestExpiredSANotReturnedBeforeTimo(t *testing.T) {
	e := NewEngine()
	now := time.Unix(1000, 0)
	e.Now = func() time.Time { return now }
	dst := ip6(t, "2001:db8::2")
	sa := mkSA(0x600, dst, ProtoAH)
	sa.HardLife = 5 * time.Second
	e.Add(sa)
	now = now.Add(10 * time.Second)
	if _, ok := e.GetBySPI(0x600, dst, ProtoAH); ok {
		t.Fatal("expired SA returned by SPI")
	}
	if _, err := e.GetBySocket(inet.IP6{}, dst, ProtoAH, nil, false); err == nil {
		t.Fatal("expired SA returned by socket")
	}
}

func TestPFKeySocketOps(t *testing.T) {
	e := NewEngine()
	s := e.Open()
	defer s.Close()
	dst := ip6(t, "2001:db8::2")

	rep := s.Send(Message{Type: MsgAdd, SA: mkSA(1, dst, ProtoAH)})
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	rep = s.Send(Message{Type: MsgGet, SA: &SA{SPI: 1, Dst: dst, Proto: ProtoAH}})
	if rep.Err != nil || rep.SA.SPI != 1 {
		t.Fatalf("get: %+v", rep)
	}
	s.Send(Message{Type: MsgAdd, SA: mkSA(2, dst, ProtoESPTransport)})
	rep = s.Send(Message{Type: MsgDump})
	if len(rep.Dump) != 2 {
		t.Fatalf("dump: %d", len(rep.Dump))
	}
	rep = s.Send(Message{Type: MsgUpdate, SA: mkSA(1, dst, ProtoAH)})
	if rep.Err != nil {
		t.Fatal("update failed")
	}
	rep = s.Send(Message{Type: MsgUpdate, SA: mkSA(9, dst, ProtoAH)})
	if rep.Err != ErrNoAssoc {
		t.Fatal("update of absent SA succeeded")
	}
	rep = s.Send(Message{Type: MsgDelete, SA: &SA{SPI: 1, Dst: dst, Proto: ProtoAH}})
	if rep.Err != nil {
		t.Fatal("delete failed")
	}
	s.Send(Message{Type: MsgFlush})
	rep = s.Send(Message{Type: MsgDump})
	if len(rep.Dump) != 0 {
		t.Fatal("flush left entries")
	}
	// Unsupported type errors.
	rep = s.Send(Message{Type: MsgAcquire})
	if rep.Err == nil {
		t.Fatal("client-sent ACQUIRE accepted")
	}
}

func TestTableChangeEchoes(t *testing.T) {
	// Every PF_KEY socket sees table changes, like routing socket
	// listeners see route changes.
	e := NewEngine()
	watcher := e.Open()
	defer watcher.Close()
	actor := e.Open()
	defer actor.Close()
	dst := ip6(t, "2001:db8::2")
	actor.Send(Message{Type: MsgAdd, SA: mkSA(7, dst, ProtoAH)})
	m := <-watcher.C
	if m.Type != MsgAdd || m.SA.SPI != 7 {
		t.Fatalf("echo: %+v", m)
	}
	// Unregistered sockets do NOT get acquires.
	e.GetBySocket(inet.IP6{}, ip6(t, "2001:db8::9"), ProtoAH, nil, false)
	select {
	case m := <-watcher.C:
		t.Fatalf("unregistered socket got %v", m.Type)
	default:
	}
}

func TestClosedSocketDropped(t *testing.T) {
	e := NewEngine()
	s := e.Open()
	s.Register()
	s.Close()
	// No daemon remains: lookups return ErrNoAssoc, not delayed.
	if _, err := e.GetBySocket(inet.IP6{}, ip6(t, "::2"), ProtoAH, nil, false); err != ErrNoAssoc {
		t.Fatalf("closed daemon still counted: %v", err)
	}
}

// TestUpdateNeverHidesLiveSA races SADB_UPDATE against the inbound
// datapath.  An update replaces a live association, so every
// concurrent LookupSPI must find either the old object or its
// replacement; a lookup that misses would drop a packet sent under an
// SA that never stopped existing.  The outbound index must still
// resolve the association afterwards.
func TestUpdateNeverHidesLiveSA(t *testing.T) {
	e := NewEngine()
	dst := ip6(t, "2001:db8::2")
	const spi = 0x71
	if err := e.Add(mkSA(spi, dst, ProtoAH)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := e.Update(mkSA(spi, dst, ProtoAH)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	misses := 0
	for i := 0; i < 200_000; i++ {
		if _, res := e.LookupSPI(spi, dst, ProtoAH); res != SPIHit {
			misses++
		}
	}
	close(done)
	wg.Wait()
	if misses > 0 {
		t.Fatalf("%d of 200000 lookups missed an association being updated", misses)
	}
	sa, err := e.GetBySocket(inet.IP6{}, dst, ProtoAH, nil, false)
	if err != nil || sa.SPI != spi {
		t.Fatalf("outbound lookup after updates: %v, %v", sa, err)
	}
	if n := len(e.Dump()); n != 1 {
		t.Fatalf("%d associations after updates, want 1", n)
	}
}

// TestUpdateMovesSelector checks that an update which adds or drops a
// tunnel SA's destination selector moves the association in or out of
// the selector index, so gateway lookups follow the new selector.
func TestUpdateMovesSelector(t *testing.T) {
	e := NewEngine()
	gw := ip6(t, "2001:db8::1")
	host := ip6(t, "2001:db8:5::9")
	tunnelSA := func(plen int) *SA {
		sa := mkSA(0x90, gw, ProtoESPTunnel)
		sa.SelDst, sa.SelPlen = ip6(t, "2001:db8:5::"), plen
		return sa
	}
	if err := e.Add(tunnelSA(48)); err != nil {
		t.Fatal(err)
	}
	for _, plen := range []int{48, 0, 48} {
		if err := e.Update(tunnelSA(plen)); err != nil {
			t.Fatal(err)
		}
		_, err := e.GetBySocket(inet.IP6{}, host, ProtoESPTunnel, nil, false)
		if found := err == nil; found != (plen > 0) || len(e.sel) != min(plen, 1) {
			t.Fatalf("selector /%d: host lookup err %v, %d selector entries", plen, err, len(e.sel))
		}
	}
}
