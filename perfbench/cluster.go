package main

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"unikraft/internal/core"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
	"unikraft/internal/ukcluster"
	"unikraft/internal/ukfault"
	"unikraft/internal/ukplat"
	"unikraft/internal/ukpool"
)

// clusterShape is one multi-host workload: an open-loop diurnal trace
// with a flash crowd, served by 8 hosts x 2 cores behind a
// least-loaded front door, 2 hosts active at start, snapshot-fork
// pools and handoff activation of standbys.
type clusterShape struct {
	requests int
	// base and peak bound the diurnal swing, flash is the crowd's rate;
	// all in requests per simulated second.
	base, peak, flash float64
	// spanRate sets the diurnal period to requests/spanRate seconds so
	// the flash crowd lands at the same phase at any trace size.
	spanRate float64
	// chaos adds a host crash at peak (detection, budgeted retries,
	// replacement by re-handoff) and a per-request VM crash hazard with
	// in-slot restart by snapshot fork.
	chaos bool
}

const (
	clusterHosts  = 8
	clusterCores  = 2
	clusterActive = 2
	// vmHazard is chaos-churn's per-request VM crash probability.
	vmHazard = 1e-2
	// retryBudget caps front-door retries per trace on chaos-churn.
	retryBudget = 20_000
	// crashedHost serves from the start, so crashing it at peak loses
	// real in-flight work.
	crashedHost = 1
	// estService is the router's per-request work estimate: the pool's
	// default service cost (4 shim syscalls, 2 virtqueue kicks, 12K app
	// cycles, the payload copied each way, one heap malloc/free) is
	// ~21K cycles, ~6µs at 3.6GHz.
	estService = 6 * time.Microsecond
	// Request payloads are drawn uniformly from [minBytes, maxBytes]:
	// size drives the payload copies, the heap malloc and the forward
	// link's serialization delay, so latency depends on the draw.
	minBytes, maxBytes = 128, 4096
	// Host and instance machine seeds use the same host-salted
	// derivation as the SDK, so each host's fleet is distinct.
	hostSalt = 0xA24BAED4963EE407
	instSalt = 0x9E3779B97F4A7C15
)

var (
	// cluster-steady's trace is long enough that routing and the pool
	// event loops outweigh the fixed fork work of a round: warm floors,
	// handoffs and the flash crowd's scale-up (about 110 forks, a fifth
	// to a quarter of ukcluster.serve wall time at 1.2M requests,
	// against 0.57 at 400K).
	clusterSteady = clusterShape{requests: 1_200_000,
		base: 250_000, peak: 500_000, flash: 2_500_000, spanRate: 640_000}
	// chaos-churn's trace is sized so its p99 sits inside the tail of
	// requests caught by the host crash and retried once after the 1ms
	// reply timeout (~1.26ms on 20 of 20 seeds). At 100K requests the
	// retried share is near 1% and the p99 flips between the clean and
	// the retried population from seed to seed (34-62µs); at 40K it
	// straddles the once- and twice-retried tails (2.2-2.7ms).
	chaosChurn = clusterShape{requests: 60_000,
		base: 40_000, peak: 90_000, flash: 250_000, spanRate: 65_000, chaos: true}
)

// clusterBench runs a clusterShape. The trace is generated once from
// the seed; every round serves the same requests on a freshly built
// cluster whose hosts fork from templates made during set-up.
type clusterBench struct {
	shape   clusterShape
	seed    uint64
	reqs    []ukpool.Request
	crashAt time.Duration

	ctxs    []*ukboot.Context
	snaps   []*ukboot.Snapshot
	act     ukcluster.Activation
	cluster *ukcluster.Cluster

	// Per-round instrumentation, reset by round. The pool hooks read
	// tr and serveSpan from worker goroutines; both are written before
	// Serve starts them.
	tr        *tracer
	serveSpan int
	forks     atomic.Int64
	loopsMu   sync.Mutex
	loops     []sim.Loop
	rep       *ukcluster.Report // the last round's report
}

func newClusterBench(shape clusterShape, seed uint64) *clusterBench {
	b := &clusterBench{shape: shape, seed: seed}
	total := time.Duration(float64(shape.requests) / shape.spanRate * float64(time.Second))
	flashAt, flashDur := total/5, total/8
	b.crashAt = flashAt + flashDur/2
	w := ukpool.NewDiurnal(seed, shape.base, shape.peak, total,
		flashAt, flashDur, shape.flash, 4096, shape.requests, 0)
	sizes := sim.NewRand(seed ^ 0xB17E5)
	b.reqs = make([]ukpool.Request, 0, shape.requests)
	for {
		r, ok := w.Next()
		if !ok {
			break
		}
		r.Bytes = minBytes + int(sizes.Uint64()%(maxBytes-minBytes+1))
		b.reqs = append(b.reqs, r)
	}
	return b
}

// setup builds the image, boots and snapshots one template per host,
// and constructs the first cluster.
func (b *clusterBench) setup(tr *tracer, parent int) error {
	b.close()
	profile, ok := core.AppByName("nginx")
	if !ok {
		return fmt.Errorf("nginx profile not registered")
	}
	sp := tr.begin("ukbuild.build", parent, -1)
	img, err := ukbuild.Build(core.DefaultCatalog(), profile, ukplat.KVMFirecracker.Name,
		ukbuild.Options{DCE: true, LTO: true})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("ukbuild.Build: %w", err)
	}
	alloc, err := ukalloc.ResolveBackend(profile.Allocator)
	if err != nil {
		return err
	}
	bootCfg := ukboot.Config{
		Platform:   ukplat.KVMFirecracker,
		MemBytes:   8 << 20,
		ImageBytes: img.Bytes,
		Allocator:  alloc,
		NICs:       profile.NICs,
		Libs:       ukboot.ProfileLibs(profile.NICs, profile.Scheduler),
	}
	for h := 0; h < clusterHosts; h++ {
		ctx, err := ukboot.NewContext(bootCfg)
		if err != nil {
			return fmt.Errorf("ukboot.NewContext: %w", err)
		}
		sp := tr.begin("ukboot.snapshot", parent, h)
		snap, err := ctx.Snapshot(sim.NewMachineWithSeed(uint64(h) * hostSalt))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("host %d snapshot: %w", h, err)
		}
		b.ctxs = append(b.ctxs, ctx)
		b.snaps = append(b.snaps, snap)
	}
	// Handoff ships the template's write-set: private page-table
	// pages, heap metadata and one descriptor per COW page.
	s := b.snaps[0]
	b.act = ukcluster.Activation{
		Handoff:    true,
		ImageBytes: s.PrivateOverheadBytes() + s.HeapMetaBytes() + s.MarkedPages()*16,
		ColdBoot:   s.Template().Report.Total(),
		Attach: bootCfg.Platform.ForkSetup +
			time.Duration(bootCfg.NICs)*bootCfg.Platform.ForkNICSetup,
	}
	return b.newCluster(tr, parent)
}

func (b *clusterBench) newCluster(tr *tracer, parent int) error {
	cfg := ukcluster.Config{
		Hosts: clusterHosts, Cores: clusterCores,
		InitialActive: clusterActive, MinActive: clusterActive,
		Policy:     ukcluster.LeastLoaded,
		NewPool:    b.hostPool,
		EstService: estService,
		Activation: b.act,
	}
	if b.shape.chaos {
		cfg.Faults = ukfault.New(b.seed).CrashHost(crashedHost, b.crashAt)
		cfg.RetryBudget = retryBudget
	}
	sp := tr.begin("ukcluster.new", parent, -1)
	c, err := ukcluster.New(cfg)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("ukcluster.New: %w", err)
	}
	b.cluster = c
	return nil
}

// hostPool is the cluster's NewPool: a fork-boot pool over host's
// template, with the fork and boot calls timed from outside ukboot.
func (b *clusterBench) hostPool(host int) (*ukpool.Pool, error) {
	ctx, snap := b.ctxs[host], b.snaps[host]
	seed := uint64(host) * hostSalt
	machine := func(id int) *sim.Machine { return sim.NewMachineWithSeed(seed + uint64(id)*instSalt) }
	opts := []ukpool.Option{
		// Six instances per core: the cap binds only in cluster-steady's
		// flash crowd, which it overloads, so a backlog builds and drains
		// and the p99 follows that backlog. With room to grow to near
		// the crowd's rate, the p99 sat in a thin queueing tail instead
		// and moved by a tenth from seed to seed.
		ukpool.WithWarm(8), ukpool.WithMaxInstances(12), ukpool.WithColdBurst(8),
		ukpool.WithScaleWindow(10 * time.Millisecond),
		ukpool.WithForkBoot(func(id int) (*ukboot.VM, error) {
			b.forks.Add(1)
			sp := b.tr.begin("ukboot.fork", b.serveSpan, host)
			defer b.tr.end(sp)
			return ctx.Fork(machine(id), snap)
		}),
		ukpool.WithEngine(func() sim.Loop {
			l := sim.NewEventLoop()
			b.loopsMu.Lock()
			b.loops = append(b.loops, l)
			b.loopsMu.Unlock()
			return l
		}),
	}
	if b.shape.chaos {
		opts = append(opts, ukpool.WithCrashHazard(vmHazard, ukfault.Mix(b.seed, uint64(host))))
	}
	boot := func(id int) (*ukboot.VM, error) {
		sp := b.tr.begin("ukboot.boot", b.serveSpan, host)
		defer b.tr.end(sp)
		return ctx.Boot(machine(id))
	}
	return ukpool.New(boot, opts...), nil
}

// round serves the whole trace once on the prepared cluster.
func (b *clusterBench) round(tr *tracer, parent int) error {
	b.tr = tr
	b.forks.Store(0)
	b.loops = b.loops[:0]
	b.serveSpan = tr.begin("ukcluster.serve", parent, -1)
	rep, err := b.cluster.Serve(ukpool.NewTrace(b.reqs))
	tr.end(b.serveSpan)
	b.tr, b.serveSpan, b.rep = nil, noSpan, rep
	if err != nil {
		return fmt.Errorf("ukcluster.Serve: %w", err)
	}
	return nil
}

func (b *clusterBench) result() *roundResult {
	var events uint64
	for _, l := range b.loops {
		events += l.Dispatched()
	}
	res := clusterResult(b.rep, len(b.reqs), events, int(b.forks.Load()))
	res.layer["ukboot.boot.model_us"] = us(b.snaps[0].Template().Report.Total())
	return res
}

func (b *clusterBench) warmedUp() {}

// reset retires the served cluster and builds the next round's, off
// the clock.
func (b *clusterBench) reset() error {
	if b.cluster != nil {
		b.cluster.Close()
		b.cluster = nil
	}
	return b.newCluster(nil, noSpan)
}

func (b *clusterBench) close() {
	if b.cluster != nil {
		b.cluster.Close()
		b.cluster = nil
	}
	for _, s := range b.snaps {
		s.Close()
	}
	b.ctxs, b.snaps = nil, nil
}

// clusterResult turns a cluster report into a round result: the
// modelled end-to-end figures, the layers' own counters, the
// correctness checks and the report digest.
func clusterResult(rep *ukcluster.Report, offered int, events uint64, forks int) *roundResult {
	p := &rep.Pool
	completed := p.Completed()
	res := &roundResult{
		offered:   offered,
		completed: completed,
		checks:    checkCluster(rep, offered),
		samples:   map[string]uint64{"model_p50_us": p.Latency.Count, "model_p99_us": p.Latency.Count},
		model: map[string]float64{
			"model_req_per_s": 0,
			"model_p50_us":    histQuantileUs(&p.Latency, 0.50),
			"model_p99_us":    histQuantileUs(&p.Latency, 0.99),
			"model_goodput":   rep.Goodput(),
		},
		layer: map[string]float64{
			"ukboot.fork.calls":            float64(forks),
			"ukboot.fork.model_us":         us(p.Boot.Mean()),
			"sim.events":                   float64(events),
			"sim.events_per_req":           float64(events) / float64(offered),
			"ukpool.warm_hit_ratio":        p.WarmHitRatio(),
			"ukpool.queued":                float64(p.Queued),
			"ukpool.cold_boots":            float64(p.ColdBoots),
			"ukpool.fork_boots":            float64(p.ForkBoots),
			"ukpool.crashes":               float64(p.Crashes),
			"ukpool.retried":               float64(p.Retried),
			"ukpool.failed":                float64(p.Failed),
			"ukpool.breaker_trips":         float64(p.BreakerTrips),
			"ukpool.peak_instances":        float64(p.PeakInstances),
			"ukcluster.route.model_p99_us": histQuantileUs(&rep.Route, 0.99),
			"ukcluster.activations":        float64(rep.Activations),
			"ukcluster.handoffs":           float64(rep.Handoffs),
			"ukcluster.drains":             float64(rep.Drains),
			"ukcluster.requeued":           float64(rep.Requeued),
			"ukcluster.retried":            float64(rep.Retried),
			"ukcluster.failed":             float64(rep.Failed),
			"ukcluster.shed":               float64(rep.Shed),
			"ukcluster.replacements":       float64(rep.Replacements),
			"ukcluster.probes":             float64(rep.Probes),
		},
	}
	if p.Duration > 0 {
		res.model["model_req_per_s"] = float64(completed) / p.Duration.Seconds()
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|events=%d|forks=%d", *rep, events, forks)
	res.digest = h.Sum64()
	return res
}

// checkCluster returns every accounting invariant the report violates.
func checkCluster(rep *ukcluster.Report, offered int) []string {
	var bad []string
	if rep.Offered != offered {
		bad = append(bad, fmt.Sprintf("front door consumed %d of %d offered requests", rep.Offered, offered))
	}
	if got := rep.Pool.Requests + rep.Shed + rep.Failed + rep.Expired; got != rep.Offered {
		bad = append(bad, fmt.Sprintf("offered %d != pool requests + shed + failed + expired = %d", rep.Offered, got))
	}
	if d := rep.Dropped(); d != 0 {
		bad = append(bad, fmt.Sprintf("Dropped() = %d, want 0", d))
	}
	p := &rep.Pool
	if got := uint64(p.Requests - p.Failed - p.Expired); got != p.Latency.Count {
		bad = append(bad, fmt.Sprintf("pool requests %d - failed %d - expired %d = %d, but %d completions recorded",
			p.Requests, p.Failed, p.Expired, got, p.Latency.Count))
	}
	perHost := 0
	for _, h := range rep.PerHost {
		perHost += h.Requests
	}
	if perHost != p.Requests {
		bad = append(bad, fmt.Sprintf("per-host requests sum to %d, pool reports %d", perHost, p.Requests))
	}
	return bad
}
