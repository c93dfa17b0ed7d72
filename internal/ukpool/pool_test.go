package ukpool

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	_ "unikraft/internal/allocators/buddy"
	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukplat"
)

// testBoot returns a BootFunc over a prevalidated firecracker context:
// the shape Runtime.NewPool produces.
func testBoot(t testing.TB) BootFunc {
	t.Helper()
	ctx, err := ukboot.NewContext(ukboot.Config{
		Platform:   ukplat.KVMFirecracker,
		MemBytes:   8 << 20,
		ImageBytes: 1 << 20,
		Allocator:  "tlsf",
	})
	if err != nil {
		t.Fatal(err)
	}
	return func(id int) (*ukboot.VM, error) {
		return ctx.Boot(sim.NewMachineWithSeed(uint64(id)))
	}
}

// testForkOpts returns fork-boot pool options over a snapshot of the
// same context testBoot uses, plus the snapshot itself for inspection.
func testForkOpts(t testing.TB) ([]Option, *ukboot.Snapshot) {
	t.Helper()
	ctx, err := ukboot.NewContext(ukboot.Config{
		Platform:   ukplat.KVMFirecracker,
		MemBytes:   8 << 20,
		ImageBytes: 1 << 20,
		Allocator:  "tlsf",
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		t.Fatal(err)
	}
	fork := func(id int) (*ukboot.VM, error) {
		return ctx.Fork(sim.NewMachineWithSeed(uint64(id)), snap)
	}
	return []Option{WithForkBoot(fork), WithOnClose(snap.Close)}, snap
}

// TestForkBootLowersColdLatency: the same bursty trace through a
// full-boot fleet and a fork-boot fleet — the fork pool's cold-start
// p99 and end-to-end p99 must both drop, every instantiation must go
// through the fork path, and the run must stay deterministic.
func TestForkBootLowersColdLatency(t *testing.T) {
	wl := func() Workload {
		return NewBursty(7, 20_000, 400_000, 100*time.Millisecond, 0.2, 60_000, 128)
	}
	serve := func(opts ...Option) *Report {
		p := New(testBoot(t), append([]Option{WithWarm(4), WithMaxInstances(128), WithColdBurst(4)}, opts...)...)
		defer p.Close()
		rep, err := p.Serve(wl())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	boot := serve()
	forkOpts, _ := testForkOpts(t)
	fork := serve(forkOpts...)

	if fork.ForkBoots == 0 || fork.ForkBoots != int(fork.Boot.Count) {
		t.Errorf("fork pool booted %d of %d instantiations via fork", fork.ForkBoots, fork.Boot.Count)
	}
	if boot.ForkBoots != 0 {
		t.Errorf("full-boot pool reports %d forks", boot.ForkBoots)
	}
	if fork.ColdBoot.Count == 0 || boot.ColdBoot.Count == 0 {
		t.Fatalf("bursty trace produced no cold boots (fork=%d boot=%d)", fork.ColdBoot.Count, boot.ColdBoot.Count)
	}
	fb, bb := fork.ColdBoot.Quantile(0.99), boot.ColdBoot.Quantile(0.99)
	if 2*fb > bb {
		t.Errorf("fork cold-boot p99 %v not well below full boot %v", fb, bb)
	}
	fl, bl := fork.Latency.Quantile(0.99), boot.Latency.Quantile(0.99)
	if fl >= bl {
		t.Errorf("fork p99 latency %v not below full-boot p99 %v", fl, bl)
	}

	// Determinism and shards=1 equivalence hold with forks in play.
	again := serve(forkOpts...)
	if !reflect.DeepEqual(fork, again) {
		t.Errorf("fork-boot serve not deterministic:\n%v\nvs\n%v", fork, again)
	}
	p := New(testBoot(t), append([]Option{WithWarm(4), WithMaxInstances(128), WithColdBurst(4)}, forkOpts...)...)
	defer p.Close()
	one, err := p.ServeParallel(wl(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, fork) {
		t.Errorf("ServeParallel(1) diverged from Serve with fork boots")
	}
}

// TestForkBootServeParallel: sharded serving remaps fork ids like boot
// ids and merges deterministically.
func TestForkBootServeParallel(t *testing.T) {
	forkOpts, _ := testForkOpts(t)
	opts := append([]Option{WithWarm(8), WithMaxInstances(64)}, forkOpts...)
	run := func() *Report {
		p := New(testBoot(t), opts...)
		defer p.Close()
		rep, err := p.ServeParallel(NewPoisson(3, 200_000, 40_000, 128), 4)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded fork-boot runs diverged")
	}
	if a.Requests != 40_000 || a.ForkBoots == 0 {
		t.Errorf("requests=%d forks=%d", a.Requests, a.ForkBoots)
	}
}

// TestOnCloseRunsOnce: the template-release hook fires exactly once.
func TestOnCloseRunsOnce(t *testing.T) {
	calls := 0
	p := New(testBoot(t), WithOnClose(func() { calls++ }))
	p.Close()
	p.Close()
	if calls != 1 {
		t.Errorf("OnClose ran %d times, want 1", calls)
	}
}

func TestSteadyLoadServesWarm(t *testing.T) {
	p := New(testBoot(t), WithWarm(8))
	defer p.Close()
	const n = 50_000
	rep, err := p.Serve(NewPoisson(1, 100_000, n, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != n {
		t.Fatalf("served %d requests, want %d", rep.Requests, n)
	}
	if got := rep.WarmHitRatio(); got < 0.9 {
		t.Errorf("warm-hit ratio = %.3f, want > 0.9 under steady load", got)
	}
	if rep.Latency.Count != n {
		t.Errorf("latency histogram holds %d samples, want %d", rep.Latency.Count, n)
	}
	if rep.Duration <= 0 || rep.Throughput() <= 0 {
		t.Errorf("degenerate report: duration=%v throughput=%f", rep.Duration, rep.Throughput())
	}
	if rep.Boot.Count == 0 {
		t.Error("no boots recorded despite prewarming")
	}
	// Warm service must be far below the ~3ms firecracker boot.
	if p50 := rep.Latency.Quantile(0.5); p50 > time.Millisecond {
		t.Errorf("median latency %v, want well under a boot time", p50)
	}
}

func TestServeIsDeterministic(t *testing.T) {
	run := func() *Report {
		p := New(testBoot(t), WithWarm(4), WithMaxInstances(64))
		defer p.Close()
		rep, err := p.Serve(NewBursty(7, 20_000, 400_000, 100*time.Millisecond, 0.2, 30_000, 128))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%v\nvs\n%v", a, b)
	}
}

func TestColdBootsAndQueueing(t *testing.T) {
	// 32 simultaneous arrivals against 2 warm instances and a fleet cap
	// of 4: 2 warm hits, 2 cold boots, 28 queued.
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = Request{Arrival: time.Millisecond, Bytes: 64}
	}
	p := New(testBoot(t), WithWarm(2), WithMaxInstances(4), DisableAutoscale())
	defer p.Close()
	rep, err := p.Serve(NewTrace(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if rep.WarmHits != 2 || rep.ColdBoots != 2 || rep.Queued != 28 {
		t.Errorf("routing = warm %d / cold %d / queued %d, want 2/2/28",
			rep.WarmHits, rep.ColdBoots, rep.Queued)
	}
	if rep.Requests != 32 || rep.Latency.Count != 32 {
		t.Errorf("not all requests served: %d (%d measured)", rep.Requests, rep.Latency.Count)
	}
	// Queued requests wait for service; cold ones wait for a boot. The
	// max latency must exceed a cold boot, the min must not.
	if rep.Latency.MaxV < rep.Boot.MinV {
		t.Errorf("max latency %v below boot time %v despite cold boots", rep.Latency.MaxV, rep.Boot.MinV)
	}
	if rep.Latency.MinV >= rep.Boot.MinV {
		t.Errorf("min latency %v not warm (boot is %v)", rep.Latency.MinV, rep.Boot.MinV)
	}
}

func TestAutoscaleGrowsAndShrinks(t *testing.T) {
	// Heavy per-request work (~47us) and a tight cold-burst allowance:
	// bursts outrun demand-driven boots, so growing the fleet is the
	// autoscaler's job, and the idle tail between bursts lets the
	// controller shrink back.
	p := New(testBoot(t), WithWarm(2), WithMaxInstances(256), WithColdBurst(2),
		WithServiceCost(4, 170_000), WithScaleWindow(20*time.Millisecond))
	defer p.Close()
	rep, err := p.Serve(NewBursty(3, 5_000, 300_000, 100*time.Millisecond, 0.3, 60_000, 128))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScaleUps == 0 {
		t.Errorf("autoscaler never scaled up: %+v", rep)
	}
	if rep.ScaleDowns == 0 || rep.Retired == 0 {
		t.Errorf("autoscaler never shrank (downs=%d retired=%d)", rep.ScaleDowns, rep.Retired)
	}
	if rep.PeakInstances <= 2 {
		t.Errorf("peak fleet %d never grew past the warm floor", rep.PeakInstances)
	}
	if rep.FinalInstances < 2 {
		t.Errorf("final fleet %d fell below the MinWarm floor", rep.FinalInstances)
	}
}

func TestRecycleResetsInstances(t *testing.T) {
	serve := func(recycleEvery int) *Report {
		p := New(testBoot(t), WithWarm(1), WithMaxInstances(1),
			WithRecycleEvery(recycleEvery), DisableAutoscale())
		defer p.Close()
		// Overloaded single server: every reset lands on the critical
		// path, so its delay is visible in the makespan.
		rep, err := p.Serve(NewPoisson(5, 500_000, 100, 64))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := serve(10)
	if rep.Resets != 10 {
		t.Errorf("resets = %d, want 10 (100 requests / recycle every 10)", rep.Resets)
	}
	// Recycling is not free on the timeline: the heap re-init delays the
	// instance, so the recycled run must take longer than the same trace
	// without recycling.
	if base := serve(0); base.Resets != 0 || rep.Duration <= base.Duration {
		t.Errorf("recycled run %v not slower than reset-free run %v (resets=%d)",
			rep.Duration, base.Duration, base.Resets)
	}
}

func TestPrewarmAndClose(t *testing.T) {
	p := New(testBoot(t), WithWarm(4))
	if err := p.Prewarm(6); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 6 || p.Idle() != 6 {
		t.Errorf("after Prewarm(6): size=%d idle=%d", p.Size(), p.Idle())
	}
	p.Close()
	if p.Size() != 0 {
		t.Errorf("size after Close = %d", p.Size())
	}
	if _, err := p.Serve(NewPoisson(1, 1000, 10, 64)); err == nil {
		t.Error("Serve on closed pool succeeded")
	}
}

// TestConcurrentServe exercises the fleet under -race: several
// goroutines serving the same pool must serialize cleanly, and every
// stream must see all of its requests served.
func TestConcurrentServe(t *testing.T) {
	p := New(testBoot(t), WithWarm(4))
	defer p.Close()
	const streams, n = 4, 5_000
	var wg sync.WaitGroup
	reps := make([]*Report, streams)
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = p.Serve(NewPoisson(uint64(i), 80_000, n, 128))
		}(i)
	}
	wg.Wait()
	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if reps[i].Requests != n {
			t.Errorf("stream %d served %d, want %d", i, reps[i].Requests, n)
		}
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("empty histogram not zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count != 1000 || h.MinV != time.Microsecond || h.MaxV != time.Millisecond {
		t.Fatalf("summary wrong: %v", &h)
	}
	// Bucketed quantiles are lower bounds within ~12% resolution.
	for _, q := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.9, 900 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := h.Quantile(q.q)
		if got > q.want || float64(got) < 0.85*float64(q.want) {
			t.Errorf("Quantile(%v) = %v, want within 12%% below %v", q.q, got, q.want)
		}
	}
	if m := h.Mean(); m < 490*time.Microsecond || m > 510*time.Microsecond {
		t.Errorf("mean = %v, want ~500.5us", m)
	}
	// Bucket mapping is exact on the round trip: low(bucket(v)) <= v.
	for _, v := range []uint64{0, 1, 7, 8, 255, 1 << 20, 1<<60 - 1} {
		i := bucketOf(v)
		if lo := bucketLow(i); lo > v {
			t.Errorf("bucketLow(bucketOf(%d)) = %d > input", v, lo)
		}
		if i > 0 && bucketLow(i-1) >= bucketLow(i) {
			t.Errorf("bucket bounds not monotone at %d", i)
		}
	}
}

func TestWorkloadShapes(t *testing.T) {
	// Poisson: n requests, non-decreasing arrivals, mean rate in the
	// right ballpark.
	p := NewPoisson(42, 100_000, 10_000, 64)
	var last, end time.Duration
	count := 0
	for {
		req, ok := p.Next()
		if !ok {
			break
		}
		if req.Arrival < last {
			t.Fatal("arrivals not monotone")
		}
		last, end = req.Arrival, req.Arrival
		count++
	}
	if count != 10_000 {
		t.Fatalf("poisson emitted %d requests", count)
	}
	rate := float64(count) / end.Seconds()
	if rate < 90_000 || rate > 110_000 {
		t.Errorf("poisson empirical rate %.0f, want ~100000", rate)
	}

	// Bursty: the burst phase must pack more arrivals than the base
	// phase.
	b := NewBursty(42, 10_000, 500_000, 100*time.Millisecond, 0.2, 20_000, 64)
	var inBurst, inBase int
	for {
		req, ok := b.Next()
		if !ok {
			break
		}
		if req.Arrival%(100*time.Millisecond) < 20*time.Millisecond {
			inBurst++
		} else {
			inBase++
		}
	}
	if inBurst <= inBase {
		t.Errorf("bursty trace not bursty: %d in-burst vs %d in-base", inBurst, inBase)
	}

	// A NaN rate, duty or surge factor takes the same default as an
	// out-of-range one: NaN fails every ordered comparison, so each
	// guard lets only an in-range value through.
	nan := math.NaN()
	for _, c := range []struct {
		name      string
		got, want Workload
	}{
		{"poisson", NewPoisson(3, nan, 200, 64), NewPoisson(3, 0, 200, 64)},
		{"bursty", NewBursty(3, nan, nan, time.Second, nan, 200, 64),
			NewBursty(3, 0, 0, time.Second, 0, 200, 64)},
		{"diurnal", NewDiurnal(3, nan, nan, time.Second, 0, time.Second, nan, 8, 200, 64),
			NewDiurnal(3, 0, 0, time.Second, 0, time.Second, 0, 8, 200, 64)},
		{"overload", NewOverload(3, nan, 200, 64).Surge(0, time.Second, nan),
			NewOverload(3, 0, 200, 64).Surge(0, time.Second, 0)},
	} {
		for i := 0; ; i++ {
			got, gok := c.got.Next()
			want, wok := c.want.Next()
			if gok != wok || got != want {
				t.Errorf("%s: NaN trace request %d = %+v, default trace %+v", c.name, i, got, want)
				break
			}
			if !gok {
				break
			}
		}
	}
}
