package tcp

// Conformance tests for the compressed TIME_WAIT engine, driven
// directly against the wheel under the TCP lock: 2MSL expiry timing,
// the re-ACK of a retransmitted FIN (with quiet-period restart),
// RFC 6191 recycling on a new SYN, and eviction at the table cap.

import (
	"testing"

	"bsd6/internal/stat"
)

func twKey(fport uint16) twTuple {
	k := twTuple{lport: 80, fport: fport}
	k.laddr[15], k.faddr[15] = 1, 2
	k.laddr[0], k.faddr[0] = 0x20, 0x20
	return k
}

func newTW(fport uint16) *twEntry {
	return &twEntry{key: twKey(fport), v6: true, sndNxt: 5000, rcvNxt: 9000}
}

// tick advances the 2MSL wheel n slow ticks.
func tick(t *TCP, n int) {
	for i := 0; i < n; i++ {
		t.twTick()
	}
}

func TestTimeWaitExpiresAfterExactly2MSL(t *testing.T) {
	tc := New(nil, nil)
	e := newTW(4000)
	tc.twInsert(e)
	tick(tc, 2*msl-1)
	if e.dead || tc.tw.get(e.key) == nil {
		t.Fatal("record expired before 2MSL")
	}
	tick(tc, 1)
	if !e.dead || tc.tw.get(e.key) != nil || tc.tw.count != 0 {
		t.Fatal("record survived past 2MSL")
	}
}

func TestTimeWaitReACKsRetransmittedFIN(t *testing.T) {
	tc := New(nil, nil)
	e := newTW(4000)
	tc.twInsert(e)
	tick(tc, 2*msl-1) // one tick from expiry

	// The peer retransmits its FIN (it never saw our last ACK).
	fin := &Header{SPort: e.key.fport, DPort: e.key.lport, Seq: e.rcvNxt - 1, Ack: e.sndNxt, Flags: FlagFIN | FlagACK}
	if !tc.twInput(e, fin) {
		t.Fatal("retransmitted FIN fell through TIME_WAIT")
	}
	if len(tc.outbox) != 1 {
		t.Fatalf("outbox has %d segments, want the re-ACK", len(tc.outbox))
	}
	th, _, err := parse(tc.outbox[0].pkt.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if th.Flags != FlagACK || th.Seq != e.sndNxt || th.Ack != e.rcvNxt {
		t.Fatalf("re-ACK = flags %#x seq %d ack %d, want ACK/%d/%d", th.Flags, th.Seq, th.Ack, e.sndNxt, e.rcvNxt)
	}
	// The quiet period restarted: the old deadline passes harmlessly and
	// the record lives a full 2MSL from the FIN.
	tick(tc, 2*msl-1)
	if e.dead {
		t.Fatal("restart did not re-arm the full 2MSL")
	}
	tick(tc, 1)
	if !e.dead {
		t.Fatal("record survived restarted 2MSL")
	}
}

func TestTimeWaitRecyclesOnHigherISN(t *testing.T) {
	tc := New(nil, nil)
	e := newTW(4000)
	tc.twInsert(e)

	// An old duplicate SYN (ISN inside the old receive space) must NOT
	// recycle: it is re-ACKed like any stray segment.
	dup := &Header{SPort: e.key.fport, DPort: e.key.lport, Seq: e.rcvNxt - 100, Flags: FlagSYN}
	if !tc.twInput(e, dup) {
		t.Fatal("old duplicate SYN recycled the record")
	}
	if e.dead {
		t.Fatal("old duplicate SYN killed the record")
	}

	// A genuinely new SYN with a higher ISN releases the tuple for a new
	// incarnation (RFC 6191) and falls through to normal demux.
	syn := &Header{SPort: e.key.fport, DPort: e.key.lport, Seq: e.rcvNxt + 1, Flags: FlagSYN}
	if tc.twInput(e, syn) {
		t.Fatal("new SYN consumed instead of recycling")
	}
	if !e.dead || tc.tw.get(e.key) != nil {
		t.Fatal("record not released on recycle")
	}
	if tc.Stats.TimeWaitRecycled.Get() != 1 {
		t.Fatalf("TimeWaitRecycled = %d", tc.Stats.TimeWaitRecycled.Get())
	}
}

func TestTimeWaitRSTReleasesRecord(t *testing.T) {
	tc := New(nil, nil)
	e := newTW(4000)
	tc.twInsert(e)
	rst := &Header{SPort: e.key.fport, DPort: e.key.lport, Seq: e.rcvNxt, Flags: FlagRST}
	if !tc.twInput(e, rst) {
		t.Fatal("RST fell through")
	}
	if !e.dead || tc.tw.count != 0 || len(tc.outbox) != 0 {
		t.Fatal("RST did not silently release the record")
	}
}

func TestTimeWaitEvictionAtCap(t *testing.T) {
	tc := New(nil, nil)
	tc.Drops = stat.NewRecorder(8)
	tc.TimeWaitMax = 2
	a, b, c := newTW(4000), newTW(4001), newTW(4002)
	tc.twInsert(a)
	tc.twTick() // b is now one tick younger than a
	tc.twInsert(b)
	tc.twInsert(c)
	if tc.tw.count != 2 {
		t.Fatalf("count = %d at cap 2", tc.tw.count)
	}
	// The victim is the record closest to expiry: a.
	if !a.dead || b.dead || c.dead {
		t.Fatal("eviction chose the wrong victim")
	}
	if tc.Stats.TimeWaitOverflow.Get() != 1 {
		t.Fatalf("TimeWaitOverflow = %d", tc.Stats.TimeWaitOverflow.Get())
	}
	if got := tc.Drops.Reasons.Snapshot()[stat.RTCPTimeWaitOverflow.String()]; got != 1 {
		t.Fatalf("typed reason count = %d", got)
	}
	// Same-tuple reinsertion replaces rather than evicts.
	b2 := newTW(4001)
	tc.twInsert(b2)
	if tc.tw.count != 2 || !b.dead || tc.tw.get(b2.key) != b2 {
		t.Fatal("same-tuple reinsert did not replace")
	}
	if tc.Stats.TimeWaitOverflow.Get() != 1 {
		t.Fatal("replacement charged an overflow")
	}
}

func TestTimeWaitUncappedWhenNegative(t *testing.T) {
	tc := New(nil, nil)
	tc.TimeWaitMax = -1
	if tc.TimeWaitLimit() != 0 {
		t.Fatalf("limit = %d, want 0 (uncapped)", tc.TimeWaitLimit())
	}
	for i := 0; i < 3*DefaultTimeWaitMax/2; i++ {
		tc.twInsert(newTW(uint16(i)))
	}
	if tc.Stats.TimeWaitOverflow.Get() != 0 {
		t.Fatal("uncapped table evicted")
	}
}

// twKeyN returns the n-th of up to 2^24 distinct tuples.
func twKeyN(n int) twTuple {
	k := twKey(uint16(n))
	k.faddr[14] = byte(n >> 16)
	return k
}

func TestTimeWaitEvictionTrimsSlot(t *testing.T) {
	const limit, rounds = 16, 5
	tc := New(nil, nil)
	tc.Drops = stat.NewRecorder(8)
	tc.TimeWaitMax = limit
	// Every record lands in one slot within one tick, so each eviction
	// past the cap takes the head of the slot it is filed in.
	entries := make([]*twEntry, rounds*limit)
	for i := range entries {
		entries[i] = &twEntry{key: twKeyN(i), v6: true}
		tc.twInsert(entries[i])
	}
	for i, e := range entries {
		survivor := i >= len(entries)-limit
		if survivor == e.dead || (tc.tw.get(e.key) == e) != survivor {
			t.Fatalf("record %d: dead=%v, want survivor=%v", i, e.dead, survivor)
		}
	}
	if tc.tw.count != limit {
		t.Fatalf("count = %d, want %d", tc.tw.count, limit)
	}
	const evicted = (rounds - 1) * limit
	if got := tc.Stats.TimeWaitOverflow.Get(); got != evicted {
		t.Fatalf("TimeWaitOverflow = %d, want %d", got, evicted)
	}
	if got := tc.Drops.Reasons.Snapshot()[stat.RTCPTimeWaitOverflow.String()]; got != evicted {
		t.Fatalf("typed reason count = %d, want %d", got, evicted)
	}
	// Evicted records left the slot rather than piling up at its head.
	slot := entries[0].slot
	if n := len(tc.tw.wheel[slot]); n > limit {
		t.Fatalf("slot holds %d entries at cap %d", n, limit)
	}
}

// BenchmarkTimeWaitInsertAtCap files compressed 2MSL records into a
// table held at the default cap, as a churning server does: every
// insert evicts the record nearest to expiry, and the wheel ticks once
// per two table-fulls of inserts.
func BenchmarkTimeWaitInsertAtCap(b *testing.B) {
	tc := New(nil, nil)
	tc.Drops = stat.NewRecorder(0)
	n := 0
	insert := func() {
		tc.twInsert(&twEntry{key: twKeyN(n & (1<<24 - 1)), v6: true})
		n++
		if n%(2*DefaultTimeWaitMax) == 0 {
			tc.twTick()
		}
	}
	for i := 0; i < DefaultTimeWaitMax; i++ {
		insert()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert()
	}
}
