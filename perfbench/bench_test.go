package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// lastLine runs a report through print and decodes its final line.
func lastLine(t *testing.T, r *report) (map[string]metric, bool, int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var out struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.Bytes())
	}
	return out.Metrics, out.Correct, out.Attempted
}

// TestShortRunsEmitEveryMetric runs every workload briefly, untraced
// and traced, and checks that each prints exactly the metrics
// BENCHMARK.json names, with their units, from a correct run.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			r, err := run(config{workload: w.Name, seed: 7, seconds: 0.4, trace: trace, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			got, correct, attempted := lastLine(t, r)
			if !correct || attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d problems=%v", w.Name, trace, correct, attempted, r.problems)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				if !ok || g.Unit != m.Unit || math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, g, m.Unit)
				}
			}
			if trace {
				var sum float64
				for _, l := range cpuLayers {
					sum += got[l+".cpu_pct"].Value
				}
				if got["trace.cpu_samples"].Value > 0 && math.Abs(sum-100) > 0.01 {
					t.Errorf("%s: cpu shares sum to %v", w.Name, sum)
				}
			}
		}
	}
}

func TestVerifierRejectsFlippedByteAndShortRead(t *testing.T) {
	pt := newPattern(rand.New(rand.NewSource(3)))
	want := pt.at(640, msgSize)
	echo := append([]byte(nil), want...)
	if err := checkEcho(want, echo); err != nil {
		t.Fatalf("intact echo rejected: %v", err)
	}
	echo[17] ^= 0x01
	if err := checkEcho(want, echo); !errors.Is(err, errMismatch) {
		t.Errorf("flipped byte: got %v", err)
	}
	if err := checkEcho(want, want[:msgSize-1]); !errors.Is(err, errShortRead) {
		t.Errorf("short echo: got %v", err)
	}

	// A stream read in uneven pieces, across the pattern's period.
	stream := append(append([]byte(nil), pt.at(0, patternLen)...), pt.at(patternLen, 5000)...)
	sc := streamCheck{pt: pt}
	for off := 0; off < len(stream); off += 7000 {
		if err := sc.consume(stream[off:min(off+7000, len(stream))]); err != nil {
			t.Fatalf("intact stream rejected at %d: %v", off, err)
		}
	}
	if err := sc.finish(int64(len(stream))); err != nil {
		t.Fatalf("complete stream rejected: %v", err)
	}
	if err := sc.finish(int64(len(stream)) + 1); !errors.Is(err, errShortRead) {
		t.Errorf("short stream: got %v", err)
	}
	bad := append([]byte(nil), stream[:9000]...)
	bad[8191] ^= 0x80
	sc = streamCheck{pt: pt}
	if err := sc.consume(bad); !errors.Is(err, errMismatch) {
		t.Errorf("flipped stream byte: got %v", err)
	}
	// Bytes delivered at the wrong offset are wrong bytes.
	sc = streamCheck{pt: pt}
	if err := sc.consume(stream[1:100]); !errors.Is(err, errMismatch) {
		t.Errorf("shifted stream: got %v", err)
	}
}

// TestTracedRunWritesLinkedSpans checks that every span of a traced
// run carries a transaction id, and that the child spans name a parent
// txn span recorded in the same run.
func TestTracedRunWritesLinkedSpans(t *testing.T) {
	for _, w := range []string{"rr", "esp-bulk"} {
		dir := t.TempDir()
		if _, err := run(config{workload: w, seed: 11, seconds: 0.4, trace: true, out: dir}); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(filepath.Join(dir, w, "spans.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var recs []spanRecord
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r spanRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		f.Close()
		roots := map[uint64]spanRecord{}
		for _, r := range recs {
			if r.Name == "txn" {
				roots[r.ID] = r
			}
		}
		if len(roots) == 0 {
			t.Fatalf("%s: no txn spans among %d", w, len(recs))
		}
		linked, children := 0, 0
		for _, r := range recs {
			if r.Txn == 0 || r.ID == 0 {
				t.Fatalf("%s: span without ids: %+v", w, r)
			}
			if r.Parent == 0 {
				continue
			}
			children++
			if p, ok := roots[r.Parent]; ok {
				linked++
				if p.Txn != r.Txn {
					t.Errorf("%s: span %+v under txn %d", w, r, p.Txn)
				}
			}
		}
		// A lane's ring keeps its newest spans, so only the children at
		// its oldest end may have lost their parent.
		if children == 0 || linked < children*8/10 {
			t.Errorf("%s: only %d of %d child spans link to a txn span", w, linked, children)
		}
	}
}

// TestCPUSharesFoldByPackage profiles a busy loop and checks that the
// folded shares cover every layer and sum to 100.
func TestCPUSharesFoldByPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x += len(make([]byte, 1<<10))
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no samples")
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-9 || len(shares) != len(cpuLayers) {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
	for fn, want := range map[string]string{
		"bsd6/internal/tcp.(*TCP).Input":                       "tcp",
		"sync/atomic.(*Pointer[bsd6/internal/key.shard]).Load": "other",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/atomic.(*Uint32).Load":               "runtime",
		"crypto/internal/fips140/aes/gcm.(*GCM).Seal":          "crypto",
		"bsd6/internal/stat.(*Counter).Inc":                    "other",
		"main.(*lane).readFull":                                "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("%s: layer %s, want %s", fn, got, want)
		}
	}
	_ = x
}

func TestHistQuantiles(t *testing.T) {
	h := new(hist)
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 1000)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000*1000
		if math.Abs(got-want)/want > 0.002 {
			t.Errorf("q%v = %v, want %v", q, got, want)
		}
	}
	if got := new(hist).quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile %v", got)
	}
}
