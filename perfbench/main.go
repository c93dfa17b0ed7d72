// Command perfbench is the repository benchmark. It composes the
// simulator's layers through their public entry points, runs one
// workload for a fixed wall-clock budget, checks every round's outputs,
// and prints its metrics by name and unit, ending with one JSON object
// on the last line of standard output.
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) records spans around every call into a layer, writes
// them as Chrome trace-event JSON, and reports the per-layer metrics.
//
//	go run . --workload cluster-steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	// The nginx profile's heap allocator, registered by import.
	_ "unikraft/internal/allocators/tlsf"
)

// bench is one workload. setup builds the system from nothing and may
// run several times; round is one timed operation, covering only the
// calls into the layers; result checks and digests the round just
// served, and reset prepares the next one, both off the clock.
type bench interface {
	setup(tr *tracer, parent int) error
	round(tr *tracer, parent int) error
	result() *roundResult
	warmedUp()
	reset() error
	close()
}

// roundResult is what one round produced. model and layer hold
// deterministic figures: every round of a seed must reproduce them,
// which the digest checks.
type roundResult struct {
	offered, completed int
	digest             uint64
	checks             []string // violated correctness checks
	model              map[string]float64
	samples            map[string]uint64 // sample count behind a model metric
	layer              map[string]float64
}

var workloads = []string{"cluster-steady", "chaos-churn", "wire-files"}

func newBench(name string, seed uint64) (bench, error) {
	switch name {
	case "cluster-steady":
		return newClusterBench(clusterSteady, seed), nil
	case "chaos-churn":
		return newClusterBench(chaosChurn, seed), nil
	case "wire-files":
		return newWireBench(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloads, ", "))
}

// A run builds the system at least minSetups times and for at least
// setupBudget of wall time; setup_s is the median. The first few set-ups
// of a process grow the Go heap and fault fresh pages in, so a short
// series lets that phase sway the median from run to run.
const (
	minSetups   = 15
	setupBudget = 2 * time.Second
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "wall-clock seconds of timed rounds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace-event JSON file of a traced run (default .bench_build/perfbench-<workload>-<seed>.json)")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.traced = *trace == 1
	if cfg.traced && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d.json", cfg.workload, cfg.seed))
	}
	// Host-noise control: at most two host threads run simulation, so
	// sim.ParallelFor never runs more than two host loops at once.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostRound is what the host paid for one timed round.
type hostRound struct {
	wall                time.Duration
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcCPU, totalCPU     float64
	traced              bool
	root                int // the round's span, noSpan when untraced
}

// cpuSample reads the runtime's GC and total CPU-time estimates.
func cpuSample() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// run executes one benchmark run and returns its result line; the
// human-readable report goes to w.
func run(cfg config, w io.Writer) (*result, error) {
	b, err := newBench(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	return runBench(b, cfg, w)
}

// runBench sets b up, warms it up and times its rounds.
func runBench(b bench, cfg config, w io.Writer) (*result, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g traced=%v go=%s nproc=%d GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var setupS []float64
	var setupRoots []int
	setupStart := time.Now()
	for i := 0; i < minSetups || time.Since(setupStart) < setupBudget; i++ {
		runtime.GC()
		sp := tr.begin("setup", noSpan, -1)
		t0 := time.Now()
		err := b.setup(tr, sp)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		setupRoots = append(setupRoots, sp)
	}

	// One untimed warm-up round, so lazy set-up (page-cache fills,
	// first-touch arenas, runtime growth) stays out of the timed rounds.
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	t0 := time.Now()
	if err := b.round(nil, noSpan); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	warmWall := time.Since(t0)
	for _, c := range b.result().checks {
		problems = append(problems, "warm-up: "+c)
	}
	b.warmedUp()
	if err := b.reset(); err != nil {
		return nil, fmt.Errorf("reset: %w", err)
	}

	var rounds []hostRound
	var first *roundResult
	minRounds := 3
	if cfg.traced {
		minRounds = 4 // two traced, two untraced
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		hr := hostRound{traced: cfg.traced && i%2 == 0, root: noSpan}
		var rt *tracer
		if hr.traced {
			rt = tr
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0, cpu0 := cpuSample()
		hr.root = rt.begin("round", noSpan, -1)
		start := time.Now()
		err := b.round(rt, hr.root)
		hr.wall = time.Since(start)
		rt.end(hr.root)
		gc1, cpu1 := cpuSample()
		runtime.ReadMemStats(&m1)
		hr.allocBytes, hr.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
		hr.gcCycles, hr.gcCPU, hr.totalCPU = m1.NumGC-m0.NumGC, gc1-gc0, cpu1-cpu0
		res.Attempted++
		var r *roundResult
		if err == nil {
			r = b.result()
		}
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("round %d: %v", i, err))
			res.Failed++
		case len(r.checks) > 0:
			for _, c := range r.checks {
				problems = append(problems, fmt.Sprintf("round %d: %s", i, c))
			}
			res.Failed++
		case first != nil && r.digest != first.digest:
			problems = append(problems, fmt.Sprintf("round %d: modelled report digest %016x differs from the first round's %016x", i, r.digest, first.digest))
			res.Failed++
		default:
			if first == nil {
				first = r
			}
			rounds = append(rounds, hr)
		}
		if err := b.reset(); err != nil {
			return nil, fmt.Errorf("reset: %w", err)
		}
	}
	if first == nil {
		return nil, fmt.Errorf("no round succeeded: %s", strings.Join(problems, "; "))
	}

	fmt.Fprintf(w, "set-up: %s s; warm-up round %.3f s; rounds attempted=%d failed=%d\n",
		fmtSummary(summarize(setupS)), warmWall.Seconds(), res.Attempted, res.Failed)

	if !cfg.traced {
		reportEndToEnd(w, res, first, rounds, setupS)
	} else if err := reportLayers(cfg, w, res, tr, first, rounds, setupRoots); err != nil {
		problems = append(problems, err.Error())
	}
	for _, p := range problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	res.Correct = len(problems) == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metric{Value: 0, Unit: m.Unit}
			res.Correct = false
			fmt.Fprintf(w, "FAILED: metric %s is not a number\n", name)
		}
	}
	return res, nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("median %.6g [q1 %.6g, q3 %.6g] n=%d", s.median, s.q1, s.q3, s.n)
}

// reportEndToEnd fills the end-to-end metrics of an untraced run: host
// metrics as medians over the timed rounds, model metrics from the
// (identical) modelled reports.
func reportEndToEnd(w io.Writer, res *result, first *roundResult, rounds []hostRound, setupS []float64) {
	var bytes, allocs []float64
	for _, r := range rounds {
		bytes = append(bytes, float64(r.allocBytes)/float64(first.offered))
		allocs = append(allocs, float64(r.mallocs)/float64(first.offered))
	}
	host := map[string]summary{
		"host_alloc_bytes_per_req": summarize(bytes),
		"host_allocs_per_req":      summarize(allocs),
		"setup_s":                  summarize(setupS),
	}
	fmt.Fprintf(w, "%-26s %-12s %-6s %s\n", "metric", "unit", "base", "value")
	for _, m := range endToEnd {
		var v float64
		var detail string
		switch {
		case m.kind == "host":
			s := host[m.name]
			v, detail = s.median, fmtSummary(s)
		default:
			v = first.model[m.name]
			detail = fmt.Sprintf("%.6g", v)
			if n, ok := first.samples[m.name]; ok {
				detail += fmt.Sprintf(" (samples %d)", n)
			}
		}
		fmt.Fprintf(w, "%-26s %-12s %-6s %s\n", m.name, m.unit, m.kind, detail)
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
}

// reportLayers fills the per-layer metrics of a traced run from the
// rounds' deterministic counters and the recorded spans, prints the
// per-layer self-time table and writes the Chrome trace.
func reportLayers(cfg config, w io.Writer, res *result, tr *tracer, first *roundResult,
	rounds []hostRound, setupRoots []int) error {
	spans := tr.snapshot()
	self, err := selfTimes(spans)
	if err != nil {
		return fmt.Errorf("trace does not reconcile: %w", err)
	}
	// Every span belongs to the set-up or round span at its root.
	rootOf := make([]int, len(spans))
	for i, s := range spans {
		if s.parent == noSpan {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[s.parent] // parents precede children
		}
	}
	type agg struct {
		calls       int
		total, self int64
	}
	perRoot := map[int]map[string]*agg{}
	var forkUs []float64
	for i, s := range spans {
		m := perRoot[rootOf[i]]
		if m == nil {
			m = map[string]*agg{}
			perRoot[rootOf[i]] = m
		}
		a := m[s.name]
		if a == nil {
			a = &agg{}
			m[s.name] = a
		}
		a.calls++
		a.total += s.end - s.start
		a.self += self[i]
		if s.name == "ukboot.fork" {
			forkUs = append(forkUs, float64(s.end-s.start)/1e3)
		}
	}
	var tracedRoots []int
	var tracedWall, plainWall, rate, gcCycles []float64
	var gcCPU, totalCPU float64
	for _, r := range rounds {
		if r.traced {
			tracedRoots = append(tracedRoots, r.root)
			tracedWall = append(tracedWall, r.wall.Seconds())
			continue
		}
		plainWall = append(plainWall, r.wall.Seconds())
		rate = append(rate, float64(first.completed)/r.wall.Seconds())
		gcCycles = append(gcCycles, float64(r.gcCycles))
		gcCPU += r.gcCPU
		totalCPU += r.totalCPU
	}
	// over returns the median across roots of f applied to each root's
	// aggregate of name (zero aggregate when the root never called it).
	over := func(roots []int, name string, f func(a agg) float64) float64 {
		var xs []float64
		for _, r := range roots {
			var a agg
			if p := perRoot[r][name]; p != nil {
				a = *p
			}
			xs = append(xs, f(a))
		}
		return summarize(xs).median
	}
	secs := func(a agg) float64 { return float64(a.total) / 1e9 }
	calls := func(a agg) float64 { return float64(a.calls) }
	req := float64(first.offered)
	perReqNs := func(names ...string) float64 {
		var xs []float64
		for _, r := range tracedRoots {
			var ns int64
			for _, n := range names {
				if p := perRoot[r][n]; p != nil {
					ns += p.total
				}
			}
			xs = append(xs, float64(ns)/req)
		}
		return summarize(xs).median
	}
	events := first.layer["sim.events"]
	vals := map[string]float64{
		"ukboot.fork.host_s":      over(tracedRoots, "ukboot.fork", secs),
		"ukboot.fork.host_us_p50": exactQuantile(forkUs, 0.50),
		"ukboot.fork.host_us_p99": exactQuantile(forkUs, 0.99),
		"ukboot.boot.calls":       over(setupRoots, "ukboot.boot", calls) + over(tracedRoots, "ukboot.boot", calls),
		"ukboot.boot.host_s":      over(setupRoots, "ukboot.boot", secs) + over(tracedRoots, "ukboot.boot", secs),
		"ukboot.snapshot.host_s":  over(setupRoots, "ukboot.snapshot", secs),
		"ukboot.serve_share": over(tracedRoots, "ukcluster.serve", func(a agg) float64 {
			if a.total == 0 {
				return 0
			}
			return float64(a.total-a.self) / float64(a.total)
		}),
		"sim.host_ns_per_event": over(tracedRoots, "ukcluster.serve", func(a agg) float64 {
			if events == 0 {
				return 0
			}
			return float64(a.self) / events
		}),
		"ukcluster.new.host_s":                 over(setupRoots, "ukcluster.new", secs),
		"ukcluster.serve.host_s":               over(tracedRoots, "ukcluster.serve", secs),
		"ukcluster.serve.self_s":               over(tracedRoots, "ukcluster.serve", func(a agg) float64 { return float64(a.self) / 1e9 }),
		"ukbuild.build.host_s":                 over(setupRoots, "ukbuild.build", secs),
		"netstack.server_poll.host_ns_per_req": perReqNs("netstack.poll.server"),
		"netstack.client_poll.host_ns_per_req": perReqNs("netstack.poll.client"),
		"httpd.poll.host_ns_per_req":           perReqNs("httpd.poll"),
		"httpd.loadgen.host_ns_per_req":        perReqNs("httpd.loadgen.fire", "httpd.loadgen.collect"),
		"host_req_per_s":                       summarize(rate).median,
		"peak_rss_mb":                          peakRSSMiB(),
		"go.gc_cycles":                         summarize(gcCycles).median,
		"trace.overhead_share":                 summarize(tracedWall).median/summarize(plainWall).median - 1,
	}
	if totalCPU > 0 {
		vals["go.gc_cpu_share"] = gcCPU / totalCPU
	}
	for k, v := range first.layer {
		vals[k] = v
	}

	fmt.Fprintf(w, "%-40s %-12s %s\n", "metric", "unit", "value")
	for _, m := range perLayer {
		v := vals[m.name] // a layer the workload never calls reads 0
		fmt.Fprintf(w, "%-40s %-12s %.6g\n", m.name, m.unit, v)
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}

	// Self time per layer, per set-up and per traced round, with the
	// tracing overhead next to it.
	fmt.Fprintf(w, "tracing overhead: %+.1f%% of round wall time (%d traced vs %d untraced rounds)\n",
		100*vals["trace.overhead_share"], len(tracedRoots), len(plainWall))
	printSelf(w, "set-up", spans, self, rootOf, setupRoots)
	printSelf(w, "traced round", spans, self, rootOf, tracedRoots)

	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("trace export: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	fmt.Fprintf(w, "trace: %d spans written to %s\n", len(spans), cfg.traceOut)
	return nil
}

// printSelf prints the per-layer self-time table of the spans under
// roots, averaged per root.
func printSelf(w io.Writer, what string, spans []span, self []int64, rootOf, roots []int) {
	in := map[int]bool{}
	for _, r := range roots {
		in[r] = true
	}
	var sub []span
	var subSelf []int64
	for i, s := range spans {
		if in[rootOf[i]] {
			sub = append(sub, s)
			subSelf = append(subSelf, self[i])
		}
	}
	n := float64(len(roots))
	fmt.Fprintf(w, "self time per %s (mean of %d)\n", what, len(roots))
	fmt.Fprintf(w, "  %-24s %10s %14s %14s\n", "span", "calls", "total ms", "self ms")
	for _, lt := range aggregate(sub, subSelf) {
		fmt.Fprintf(w, "  %-24s %10.1f %14.3f %14.3f\n", lt.name, float64(lt.calls)/n,
			float64(lt.total)/n/1e6, float64(lt.self)/n/1e6)
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
