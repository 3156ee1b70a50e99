package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanName names the layer call a span encloses.  Spans are recorded
// by the benchmark around each call it makes into a layer; a txn span
// encloses one whole transaction and is the parent of the calls it
// made.
type spanName uint8

const (
	spTxn spanName = iota
	spConnect
	spSend
	spReadWait
	spClose
	spAccept
	spSrvRead
	spSrvSend
	spSrvClose
	spKeyAdd
	spKeyDelete
	nSpanNames
)

var spanNames = [nSpanNames]string{
	spTxn:       "txn",
	spConnect:   "core.connect",
	spSend:      "core.send",
	spReadWait:  "core.read_wait",
	spClose:     "core.close",
	spAccept:    "core.accept",
	spSrvRead:   "core.srv_read",
	spSrvSend:   "core.srv_send",
	spSrvClose:  "core.srv_close",
	spKeyAdd:    "key.add",
	spKeyDelete: "key.delete",
}

type span struct {
	id, parent, txn uint64
	start, end      int64 // ns since the run's epoch
	name            spanName
}

// traceRing is how many spans a lane keeps in memory; older spans are
// overwritten.
const traceRing = 1 << 14

// tracer records one lane's spans in memory.  Only the lane's
// goroutine touches it while the lane runs.
type tracer struct {
	epoch time.Time
	lane  uint64
	seq   uint64
	ring  []span
	n     int // spans recorded, including overwritten ones
}

func newTracer(epoch time.Time, lane uint64) *tracer {
	return &tracer{epoch: epoch, lane: lane, ring: make([]span, traceRing)}
}

// id allocates a span id, unique across lanes.
func (t *tracer) id() uint64 {
	t.seq++
	return t.lane<<48 | t.seq
}

// add records a span with id id (0 allocates one).
func (t *tracer) add(id, parent, txn uint64, name spanName, start, end time.Time) {
	if id == 0 {
		id = t.id()
	}
	t.ring[t.n%traceRing] = span{id: id, parent: parent, txn: txn,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)), name: name}
	t.n++
}

// spans returns the retained spans, oldest first.
func (t *tracer) spans() []span {
	if t.n <= traceRing {
		return t.ring[:t.n]
	}
	i := t.n % traceRing
	return append(append([]span(nil), t.ring[i:]...), t.ring[:i]...)
}

// spanDurations gathers the durations in ns of every retained span of
// each name across lanes.
func spanDurations(lanes []*lane) [nSpanNames]*hist {
	var out [nSpanNames]*hist
	for i := range out {
		out[i] = new(hist)
	}
	for _, l := range lanes {
		for _, s := range l.tr.spans() {
			out[s.name].record(s.end - s.start)
		}
	}
	return out
}

// spanRecord is one line of the spans file.
type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Txn    uint64 `json:"txn"`
	Lane   string `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// writeSpans writes the retained spans of every lane as JSON lines,
// sorted by start time.
func writeSpans(path string, lanes []*lane) error {
	var recs []spanRecord
	for _, l := range lanes {
		for _, s := range l.tr.spans() {
			recs = append(recs, spanRecord{ID: s.id, Parent: s.parent, Txn: s.txn, Lane: l.name,
				Name: spanNames[s.name], Start: s.start, Dur: s.end - s.start})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
