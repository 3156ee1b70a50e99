// Command perfbench is the repository benchmark.  It drives two stacks
// with default Options over one simulated link, only through the
// public API (NewStack, Hub, sockets, the key engine and Snapshot), and
// checks every byte the stacks deliver.
//
//	perfbench --workload rr|bulk|esp-bulk|churn --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// measures half the time untraced and half traced, and prints the
// per-layer metrics: counter deltas from Snapshot(), the interfaces and
// the Go runtime, spans recorded around each call the benchmark makes
// into a layer, and a CPU profile folded by package.  The last line of
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  Spans and the profile of a traced run are written under
// --out.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds, warms and (but for the
// last) tears down its set-up; setup_s is the median.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&c.seed, "seed", 1, "seed for payloads, SA keys and the PF_KEY writer's SPIs")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&c.out, "out", ".bench_build/perfbench", "directory for the spans and CPU profile of a traced run")
	flag.Parse()
	c.trace = trace == 1
	if (trace != 0 && trace != 1) || c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	r, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run.
type report struct {
	prov      provenance
	correct   bool
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric // printed in the final JSON object
	info      map[string]metric // printed above it only
	slices    strings.Builder   // per-slice figures, printed above it
}

func (r *report) set(name string, v float64, unit string)  { r.metrics[name] = metric{v, unit} }
func (r *report) note(name string, v float64, unit string) { r.info[name] = metric{v, unit} }

func (r *report) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	all := map[string]metric{}
	for k, v := range r.info {
		all[k] = v
	}
	for k, v := range r.metrics {
		all[k] = v
	}
	names := make([]string, 0, len(all))
	for k := range all {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(bw, "%-32s %16s %s\n", k, strconv.FormatFloat(all[k].Value, 'g', -1, 64), all[k].Unit)
	}
	bw.WriteString(r.slices.String())
	for _, p := range r.problems {
		fmt.Fprintf(bw, "problem: %s\n", p)
	}
	prov, err := json.Marshal(r.prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "provenance %s\n", prov)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", out)
	return bw.Flush()
}

// provenance says what was measured, where and how.
type provenance struct {
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Commit     string         `json:"commit"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	SetupReps  int            `json:"setup_reps"`
	StallAfter string         `json:"stall_deadline"`
	Params     map[string]any `json:"params"`
}

func newProvenance(c config, w workload) provenance {
	return provenance{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Workload:   c.workload,
		Seed:       c.seed,
		Seconds:    c.seconds,
		Trace:      c.trace,
		SetupReps:  setupReps,
		StallAfter: stallAfter.String(),
		Params:     w.params(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// setUp builds a bed, starts the workload on it and waits out warm-up.
func setUp(name string, in *inputs, nSlices int) (*bed, workload, error) {
	w, err := newWorkload(name, in)
	if err != nil {
		return nil, nil, err
	}
	b, err := newBed(nSlices)
	if err != nil {
		return nil, nil, err
	}
	if err := w.start(b); err != nil {
		b.close()
		return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	if !waitFor(60*time.Second, func() bool { return w.warmed(b) }) {
		b.phase.Store(phaseStop)
		w.stop(b)
		b.close()
		return nil, nil, fmt.Errorf("%s set-up: warm-up did not finish; first failure: %s", name, firstFailure(b))
	}
	return b, w, nil
}

// tearDown stops the load and closes the stacks, returning the checks
// that failed.  Stack.Close does not free frames still waiting in an
// input queue, so the stacks are first left to settle: no frame queued
// or in dispatch, and none sent for settleQuiet.
func tearDown(b *bed, w workload) []string {
	b.phase.Store(phaseStop)
	problems := w.stop(b)
	var sent uint64
	quiet := time.Now()
	waitFor(2*time.Second, func() bool {
		n := b.cIf.Stats().OutPackets + b.sIf.Stats().OutPackets
		if n != sent || b.cli.Pending() != 0 || b.srv.Pending() != 0 {
			sent, quiet = n, time.Now()
		}
		return time.Since(quiet) >= settleQuiet
	})
	problems = append(problems, endChecks(b)...)
	b.close()
	return problems
}

const settleQuiet = 100 * time.Millisecond

func firstFailure(b *bed) string {
	for _, l := range b.lanes {
		if m := l.failMsg.Load(); m != nil {
			return *m
		}
	}
	return "none"
}

// window is one measured interval.
type window struct {
	elapsed time.Duration
	txns    int64 // transactions completed in it
	bytes   int64 // payload bytes verified in it
}

func (b *bed) totals() (txns, bytes int64) {
	for _, l := range b.lanes {
		if l.kind == kindTxn {
			txns += l.done.Load()
			bytes += l.bytes.Load()
		}
	}
	return
}

// sliceLen is the length of the slices a measured phase is cut into.
// Throughput and latency quantiles are computed per slice and reported
// as the median over the slices, so a burst of interference from
// outside the process moves a metric only as far as it moves the
// median slice.
const sliceLen = time.Second

func slicesIn(d time.Duration) int {
	return max(1, int((d+sliceLen/2)/sliceLen))
}

// measure runs phase ph for d, one window per slice, calling tick (if
// any) every millisecond.
func measure(b *bed, ph int32, d time.Duration, tick func()) []window {
	out := make([]window, b.nSlices)
	txns, bytes := b.totals()
	start := time.Now()
	t := start
	b.slice.Store(0)
	b.phase.Store(ph)
	for i := range out {
		end := start.Add(d * time.Duration(i+1) / time.Duration(len(out)))
		if tick == nil {
			time.Sleep(time.Until(end))
		}
		for tick != nil && time.Now().Before(end) {
			tick()
			time.Sleep(time.Millisecond)
		}
		if i+1 < len(out) {
			b.slice.Store(int32(i + 1))
		}
		txns1, bytes1 := b.totals()
		t1 := time.Now()
		out[i] = window{elapsed: t1.Sub(t), txns: txns1 - txns, bytes: bytes1 - bytes}
		txns, bytes, t = txns1, bytes1, t1
	}
	return out
}

// sliceStat is what the end-to-end metrics read from one slice.
type sliceStat struct {
	txnPerS, mbPerS, p50us, p99us float64
}

func sliceStats(b *bed, ph int32, wins []window) []sliceStat {
	out := make([]sliceStat, len(wins))
	for i, w := range wins {
		h := latency(b.lanes, kindTxn, ph, i)
		out[i] = sliceStat{
			txnPerS: float64(w.txns) / w.elapsed.Seconds(),
			mbPerS:  float64(w.bytes) / 1e6 / w.elapsed.Seconds(),
			p50us:   h.quantile(0.50) / 1e3,
			p99us:   h.quantile(0.99) / 1e3,
		}
	}
	return out
}

func txnPerS(s sliceStat) float64 { return s.txnPerS }

func medianOf(ss []sliceStat, f func(sliceStat) float64) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return median(v)
}

func run(c config) (*report, error) {
	in := newInputs(c.seed)
	w0, err := newWorkload(c.workload, in)
	if err != nil {
		return nil, err
	}
	r := &report{prov: newProvenance(c, w0), metrics: map[string]metric{}, info: map[string]metric{}}

	dur := time.Duration(c.seconds * float64(time.Second))
	phaseDur := dur
	if c.trace {
		phaseDur = dur / 2
	}
	var b *bed
	var w workload
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if b, w, err = setUp(c.workload, in, slicesIn(phaseDur)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			r.problems = append(r.problems, tearDown(b, w)...)
		}
	}

	measured := []int32{phaseMeasure}
	steal0 := readSteal()
	var lm *layerRun
	var wins []window
	if !c.trace {
		wins = measure(b, phaseMeasure, phaseDur, nil)
	} else {
		measured = append(measured, phaseTraced)
		lm, err = traceRun(b, phaseDur)
		if err != nil {
			return nil, err
		}
		wins = lm.untraced
	}

	steal := readSteal().since(steal0)
	r.problems = append(r.problems, tearDown(b, w)...)
	mbufEnd := mbufAfterTeardown(b)
	if mbufEnd != 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d mbuf bytes outstanding after teardown", mbufEnd))
	}

	// Operations are booked under the phase they started in.
	var fails, readStalls, writeStalls int64
	for _, l := range b.lanes {
		for _, ph := range measured {
			fails += l.fails[ph].Load()
			readStalls += l.readStalls[ph].Load()
			writeStalls += l.writeStalls[ph].Load()
			if l.kind != kindAux {
				for _, h := range l.lat[ph] {
					r.attempted += h.n
				}
			}
		}
	}
	r.attempted += fails + int64(len(r.problems))
	r.failed = fails + int64(len(r.problems))
	r.correct = r.failed == 0 && r.attempted > 0
	if fails > 0 {
		r.problems = append(r.problems, "first failed operation: "+firstFailure(b))
	}
	if r.attempted == 0 {
		r.attempted = 1 // no operation completed at all: one attempt, failed
		r.failed = 1
		r.problems = append(r.problems, "no operation completed")
	}
	failRatio := float64(r.failed) / float64(r.attempted)

	ss := sliceStats(b, phaseMeasure, wins)
	p50 := medianOf(ss, func(s sliceStat) float64 { return s.p50us })
	p99 := medianOf(ss, func(s sliceStat) float64 { return s.p99us })
	samples := latency(b.lanes, kindTxn, phaseMeasure, -1).n
	rss := peakRSSMB()
	r.note("host.steal_pct", steal, "%")
	if !c.trace {
		r.set("setup_s", median(setups), "s")
		r.set("txn_per_s", medianOf(ss, txnPerS), "1/s")
		r.set("txn_p50_us", p50, "us")
		r.set("txn_p99_us", p99, "us")
		r.set("goodput_MBps", medianOf(ss, func(s sliceStat) float64 { return s.mbPerS }), "MB/s")
		r.set("rss_peak_MB", rss, "MB")
		r.note("fail_ratio", failRatio, "ratio")
		r.note("core.read_stalls", float64(readStalls), "count")
		r.note("core.write_stalls", float64(writeStalls), "count")
		r.note("txn.samples", float64(samples), "count")
		for i, s := range ss {
			fmt.Fprintf(&r.slices, "slice %2d: %.1f txn/s, %.3f MB/s, p50 %.3f us, p99 %.3f us\n", i, s.txnPerS, s.mbPerS, s.p50us, s.p99us)
		}
		return r, nil
	}
	if err := lm.set(r, b, filepath.Join(c.out, c.workload)); err != nil {
		return nil, err
	}
	r.set("mbuf.outstanding_end_B", float64(mbufEnd), "B")
	r.set("fail_ratio", failRatio, "ratio")
	r.set("core.read_stalls", float64(readStalls), "count")
	r.set("core.write_stalls", float64(writeStalls), "count")
	r.set("txn.samples", float64(samples), "count")
	r.note("txn_p50_us", p50, "us")
	r.note("txn_p99_us", p99, "us")
	r.note("rss_peak_MB", rss, "MB")
	r.note("setup_s", median(setups), "s")
	return r, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// cpuTicks is the host's cumulative CPU time from /proc/stat: all of
// it, and the part the hypervisor gave to other guests (steal).
type cpuTicks struct{ total, steal uint64 }

func readSteal() cpuTicks {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user .. steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the share of CPU time stolen between t0 and t, in percent.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	return 100 * ratio(float64(t.steal-t0.steal), float64(t.total-t0.total))
}

// endChecks inspects both stacks once the load has stopped: no TCP
// checksum failures, no ICV, decrypt or replay failures, and every
// drop carrying a typed reason.
func endChecks(b *bed) []string {
	var out []string
	for _, s := range [...]struct {
		name string
		snap func() map[string]map[string]uint64
	}{
		{"cli", func() map[string]map[string]uint64 { return snapMaps(b.cli.Snapshot()) }},
		{"srv", func() map[string]map[string]uint64 { return snapMaps(b.srv.Snapshot()) }},
	} {
		m := s.snap()
		for _, c := range []struct{ block, counter string }{
			{"tcp", "RcvBadSum"},
			{"ipsec", "InAuthFail"},
			{"ipsec", "InDecryptFail"},
			{"ipsec", "InReplay"},
		} {
			if v := m[c.block][c.counter]; v != 0 {
				out = append(out, fmt.Sprintf("%s: %s.%s = %d", s.name, c.block, c.counter, v))
			}
		}
		if v := m["reasons"]["unknown"]; v != 0 {
			out = append(out, fmt.Sprintf("%s: %d drops without a typed reason", s.name, v))
		}
	}
	return out
}

// mbufAfterTeardown waits briefly for the mbuf pool to drain and
// returns the bytes still outstanding.
func mbufAfterTeardown(b *bed) int64 {
	var n int64
	waitFor(2*time.Second, func() bool {
		n = b.cli.Snapshot().Limits.PoolOutstanding
		return n == 0
	})
	return n
}
