package ukpool

import (
	"fmt"
	"math"
	"sync"
	"time"

	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukfault"
)

// BootFunc boots one fresh instance on its own simulated machine. The
// id is unique per instance for the pool's lifetime, so implementations
// can derive deterministic per-instance seeds from it. Called from
// multiple goroutines during batched scale-ups (and from per-shard
// goroutines under ServeParallel); each call must use its own machine.
type BootFunc func(id int) (*ukboot.VM, error)

// Config tunes a Pool. The zero value is not useful; New fills every
// unset field with the defaults documented per field.
type Config struct {
	// MinWarm is the floor of pre-booted instances (default 8). Serve
	// boots up to it before admitting traffic and the autoscaler never
	// shrinks below it.
	MinWarm int
	// MaxInstances caps the fleet, warm and busy together (default
	// 1024). Arrivals beyond the cap queue instead of cold-booting.
	MaxInstances int
	// ColdBurst bounds cold boots in flight at once (default 32). A
	// miss beyond it queues instead of booting: with multi-millisecond
	// boots, unbounded demand-driven boots would storm the fleet to its
	// cap before the first instance comes up. Growing past the burst
	// allowance is the autoscaler's job.
	ColdBurst int
	// SyscallsPerRequest is the number of shim-translated syscalls an
	// instance issues per request (default 4: read, work, write, close).
	SyscallsPerRequest int
	// AppCycles is the application-level work per request in CPU cycles
	// (default 12000, ~3.3us at 3.6GHz).
	AppCycles uint64
	// RecycleEvery resets an instance's heap after this many served
	// requests (default 4096; 0 disables recycling).
	RecycleEvery int
	// ScaleWindow is the autoscaler's observation window and tick
	// period (default 50ms of virtual time).
	ScaleWindow time.Duration
	// TargetP99 is the request-latency SLO; a window whose p99 exceeds
	// it triggers a scale-up regardless of utilization (default 2ms).
	TargetP99 time.Duration
	// Autoscale enables the rate/latency-driven warm-set controller
	// (default on; DisableAutoscale turns it off).
	Autoscale bool
	// ZeroCopy drops the per-request payload copy charges (RX and TX)
	// from the service-time model — the Spec's WithZeroCopy plumbed
	// into the serving layer (default off: the copying path is the
	// calibrated baseline).
	ZeroCopy bool
	// KickBatch amortizes the two per-request virtqueue kicks
	// (VM-exit-class cost) over a batch of n requests, the Spec's
	// WithTxBatch (default 1: one pair of kicks per request).
	KickBatch int
	// RequestWork, when set, runs inside every request's service window
	// with the serving instance's VM and the pool-wide request ordinal
	// (1-based, deterministic under Serve and per shard under
	// ServeParallel). Whatever it charges to the instance's machine —
	// e.g. driving the VM's VFS through an open/sendfile/close per
	// request, the fileserve experiment's workload — lands in that
	// request's service time.
	RequestWork func(vm *ukboot.VM, seq int)
	// Faults is the pool-level fault model (default none): each request
	// crashes its serving instance mid-service with probability
	// Faults.Hazard, drawn deterministically from FaultSeed and the
	// request's identity. The partial service is charged, the instance
	// is restarted in its slot through the usual spawn path (a fork
	// clone when the pool has a template), and the request retries on
	// another instance up to CrashRetries times before counting Failed.
	Faults ukfault.VMFaults
	// FaultSeed domain-separates this pool's crash draws (hosts in a
	// cluster get distinct seeds derived from the plan seed).
	FaultSeed uint64
	// CrashRetries bounds per-request crash retries (default 2).
	CrashRetries int
	// BreakerAfter is the circuit breaker: an instance that crashes this
	// many times without completing a request in between is retired
	// instead of restarted (default 3; 0 disables the breaker).
	BreakerAfter int
	// SeriesWindow, when > 0, additionally buckets completion latencies
	// into fixed windows of virtual time (Report.Series) — the timeline
	// the chaos experiment derives recovery time from.
	SeriesWindow time.Duration
	// DefaultDeadline, when > 0, stamps every request that arrives
	// without its own deadline: deadline = origin + DefaultDeadline
	// (origin is the front-door arrival when the cluster router set one,
	// the pool arrival otherwise). Requests whose deadline has already
	// passed when an instance would pick them up are dropped before any
	// service time is charged and counted Expired.
	DefaultDeadline time.Duration
	// BrownoutWater, when > 0, arms the brownout hook: a request that
	// starts service while at least this many requests are queued behind
	// it is served degraded — RequestWork is skipped and the application
	// work drops to half of AppCycles — trading response fidelity for
	// drain rate before anything is dropped. Counted in Report.Browned.
	BrownoutWater int
	// SlowFactor > 1 multiplies every service time by that factor inside
	// the virtual-time window [SlowFrom, SlowTo) — external interference
	// (a noisy neighbor, a failing disk) that slows the host without
	// charging its CPU. SlowTo <= SlowFrom means "until the trace ends".
	// The fault plan's slow-host scenarios map here.
	SlowFactor       float64
	SlowFrom, SlowTo time.Duration
	// ForkBoot, when set, replaces every instance instantiation (warm
	// floor, demand cold boots, autoscaler scale-ups) with a
	// snapshot-fork clone — the Spec's WithSnapshotBoot plumbed into the
	// fleet. The template belongs to whoever built the pool; see
	// WithOnClose for releasing it.
	ForkBoot BootFunc
	// OnClose runs once when the pool is closed — the hook the runtime
	// uses to release the pool-owned snapshot template.
	OnClose func()
	// NewLoop, when set, supplies the event-loop engine every serve
	// (and every shard of a parallel serve) runs on. Default nil uses
	// the timer-wheel sim.EventLoop; the engine experiment swaps in
	// sim.NewHeapLoop to race the two engines over identical traces.
	// Any engine satisfying sim.Loop's dispatch-order contract
	// (ascending timestamp, admission order within an instant) yields
	// byte-identical reports.
	NewLoop func() sim.Loop
}

// Option adjusts a Config.
type Option func(*Config)

// WithWarm sets the warm-instance floor.
func WithWarm(n int) Option { return func(c *Config) { c.MinWarm = n } }

// WithMaxInstances caps the fleet size.
func WithMaxInstances(n int) Option { return func(c *Config) { c.MaxInstances = n } }

// WithColdBurst bounds demand-driven cold boots in flight at once.
func WithColdBurst(n int) Option { return func(c *Config) { c.ColdBurst = n } }

// WithServiceCost sets the per-request cost model: syscall count and
// application cycles.
func WithServiceCost(syscalls int, appCycles uint64) Option {
	return func(c *Config) {
		c.SyscallsPerRequest = syscalls
		c.AppCycles = appCycles
	}
}

// WithRecycleEvery resets an instance's heap after n served requests
// (0 disables).
func WithRecycleEvery(n int) Option { return func(c *Config) { c.RecycleEvery = n } }

// WithScaleWindow sets the autoscaler tick period.
func WithScaleWindow(d time.Duration) Option { return func(c *Config) { c.ScaleWindow = d } }

// WithTargetP99 sets the latency SLO driving scale-ups.
func WithTargetP99(d time.Duration) Option { return func(c *Config) { c.TargetP99 = d } }

// DisableAutoscale pins the warm set at MinWarm (cold boots still
// happen on demand up to MaxInstances).
func DisableAutoscale() Option { return func(c *Config) { c.Autoscale = false } }

// WithZeroCopy switches the per-request cost model to zero-copy buffer
// handoff: no payload copy charges on receive or send.
func WithZeroCopy() Option { return func(c *Config) { c.ZeroCopy = true } }

// WithKickBatch amortizes per-request virtqueue kicks over batches of n
// requests (n <= 1 means one kick pair per request).
func WithKickBatch(n int) Option { return func(c *Config) { c.KickBatch = n } }

// WithRequestWork attaches per-request instance work (see
// Config.RequestWork).
func WithRequestWork(fn func(vm *ukboot.VM, seq int)) Option {
	return func(c *Config) { c.RequestWork = fn }
}

// WithCrashHazard arms the per-request VM crash hazard, seeded for
// deterministic draws. A hazard outside [0, 1] makes serves fail.
func WithCrashHazard(hazard float64, seed uint64) Option {
	return func(c *Config) {
		c.Faults.Hazard = hazard
		c.FaultSeed = seed
	}
}

// WithCrashRetries bounds how many times a crashed request is retried
// before it counts as Failed.
func WithCrashRetries(n int) Option { return func(c *Config) { c.CrashRetries = n } }

// WithBreaker sets the circuit-breaker threshold: consecutive crashes
// before an instance is retired instead of restarted (0 disables).
func WithBreaker(n int) Option { return func(c *Config) { c.BreakerAfter = n } }

// WithLatencySeries records per-window latency histograms
// (Report.Series) with the given window of virtual time.
func WithLatencySeries(d time.Duration) Option {
	return func(c *Config) { c.SeriesWindow = d }
}

// WithEngine selects the event-loop engine serves run on (nil restores
// the default timer wheel). The engine only changes how the dispatch
// order is computed, never what it is, so reports are byte-identical
// across engines.
func WithEngine(mk func() sim.Loop) Option {
	return func(c *Config) { c.NewLoop = mk }
}

// WithDeadline stamps a default end-to-end deadline (origin + d) on
// every request that arrives without one; expired requests are dropped
// unserved and counted Expired.
func WithDeadline(d time.Duration) Option {
	return func(c *Config) { c.DefaultDeadline = d }
}

// WithBrownout arms degraded-mode serving once the queue behind a
// dispatch reaches depth (0 disables; see Config.BrownoutWater).
func WithBrownout(depth int) Option {
	return func(c *Config) { c.BrownoutWater = depth }
}

// WithSlowdown multiplies service times by factor inside [from, to) —
// the slow-host fault scenario (0 disables; Serve rejects a factor
// outside [1, ukfault.MaxSlowdown]).
func WithSlowdown(from, to time.Duration, factor float64) Option {
	return func(c *Config) {
		c.SlowFrom, c.SlowTo, c.SlowFactor = from, to, factor
	}
}

// WithForkBoot makes the fleet instantiate instances by snapshot-fork
// instead of the full boot pipeline. The fork func must satisfy the
// same contract as the pool's BootFunc (own machine per call, unique
// deterministic ids).
func WithForkBoot(fork BootFunc) Option { return func(c *Config) { c.ForkBoot = fork } }

// WithOnClose registers a hook run once by Pool.Close — used to release
// pool-owned resources such as the snapshot template behind a fork
// boot.
func WithOnClose(fn func()) Option { return func(c *Config) { c.OnClose = fn } }

// instance is one booted unikernel in the fleet.
type instance struct {
	id      int
	vm      *ukboot.VM
	bootDur time.Duration
	served  int // requests since the last heap reset
	crashes int // consecutive crashes (reset on completion) for the breaker
	// fleetIdx is the instance's position in Pool.fleet, maintained so
	// retirement is O(1) instead of a fleet scan.
	fleetIdx int
	// ev is the instance's reusable timer event (service completion,
	// boot-ready, recycle-ready). At most one is outstanding per
	// instance at any moment, so the struct is embedded and recycled —
	// the hot serving path schedules no closures and allocates nothing.
	ev instEvent
}

// deque is a growable ring with O(1) operations at both ends. The idle
// set uses the back as the hot LIFO end (most recently idled) and the
// front as the cold retirement end; the request queue is plain FIFO.
// It replaces slices whose pop-front reslicing made takeColdest (and
// the wait queue behind it) O(n) in aggregate.
type deque[T any] struct {
	buf  []T
	head int
	n    int
}

func (d *deque[T]) len() int { return d.n }

func (d *deque[T]) grow() {
	size := 2 * len(d.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < d.n; i++ {
		buf[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf, d.head = buf, 0
}

func (d *deque[T]) pushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = v
	d.n++
}

func (d *deque[T]) popBack() T {
	var zero T
	d.n--
	i := (d.head + d.n) % len(d.buf)
	v := d.buf[i]
	d.buf[i] = zero
	return v
}

func (d *deque[T]) popFront() T {
	var zero T
	v := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return v
}

func (d *deque[T]) reset() { *d = deque[T]{} }

// Pool keeps a fleet of instances of one spec and serves request
// streams through it. All methods are safe for concurrent use;
// concurrent Serve calls serialize on the pool's fleet.
type Pool struct {
	cfg  Config
	boot BootFunc

	mu     sync.Mutex
	nextID int
	fleet  []*instance      // every live instance
	idle   deque[*instance] // subset currently idle (LIFO back = cache-warm)
	closed bool
	// reqSeq numbers dispatched requests for Config.RequestWork
	// (monotone under the pool lock; per child pool under
	// ServeParallel, so hooks stay deterministic there too).
	reqSeq int
}

// validate rejects fault settings the serve engines cannot execute;
// both engines call it before anything boots.
func (c *Config) validate() error {
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return ukfault.ValidateSlowdown(c.SlowFactor)
}

// New builds a pool over boot. No instances are booted until Serve (or
// Prewarm) runs.
func New(boot BootFunc, opts ...Option) *Pool {
	cfg := Config{
		MinWarm:            8,
		MaxInstances:       1024,
		ColdBurst:          32,
		SyscallsPerRequest: 4,
		AppCycles:          12_000,
		RecycleEvery:       4096,
		ScaleWindow:        50 * time.Millisecond,
		TargetP99:          2 * time.Millisecond,
		Autoscale:          true,
		KickBatch:          1,
		CrashRetries:       2,
		BreakerAfter:       3,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.MinWarm < 1 {
		cfg.MinWarm = 1
	}
	if cfg.MaxInstances < cfg.MinWarm {
		cfg.MaxInstances = cfg.MinWarm
	}
	if cfg.ScaleWindow <= 0 {
		cfg.ScaleWindow = 50 * time.Millisecond
	}
	if cfg.ColdBurst < 1 {
		cfg.ColdBurst = 1
	}
	if cfg.KickBatch < 1 {
		cfg.KickBatch = 1
	}
	return &Pool{cfg: cfg, boot: boot}
}

// Size reports the live fleet size (idle + busy).
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fleet)
}

// Idle reports the number of idle warm instances.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle.len()
}

// Close retires every instance and runs the OnClose hook (releasing
// the snapshot template behind a fork-boot pool). The pool must not be
// serving.
func (p *Pool) Close() {
	p.mu.Lock()
	for _, inst := range p.fleet {
		inst.vm.Close()
	}
	runHook := !p.closed && p.cfg.OnClose != nil
	p.fleet, p.closed = nil, true
	p.idle.reset()
	p.mu.Unlock()
	// Outside the lock: a hook that inspects the pool must not deadlock.
	if runHook {
		p.cfg.OnClose()
	}
}

// Report is the outcome of one Serve run.
type Report struct {
	// Requests is the number of requests the pool accepted. Without
	// faults every one of them completes (the pool never drops, it
	// queues); with faults Requests = completions + Failed.
	Requests int
	// WarmHits counts requests dispatched immediately to an idle warm
	// instance; ColdBoots counts requests that paid a full boot;
	// Queued counts requests that waited for an instance to free up.
	WarmHits, ColdBoots, Queued int
	// ForkBoots counts instantiations (warm floor, demand cold boots and
	// scale-ups alike) that went through the snapshot-fork path instead
	// of the full boot pipeline.
	ForkBoots int
	// Resets counts warm-instance heap recycles; Retired counts
	// instances the autoscaler shut down.
	Resets, Retired int
	// Failed counts requests lost for good: crashed more than
	// CrashRetries times, or outstanding (in service, queued, waiting
	// on a boot, or still undelivered) when a fail-stop cutoff killed
	// the host. Retried counts crash-triggered re-dispatches — a
	// request that crashes twice and then completes adds 2 to Retried,
	// 1 to completions, 0 to Failed.
	Failed, Retried int
	// Crashes counts mid-request instance crashes; BreakerTrips counts
	// instances the circuit breaker retired after repeated crashes.
	Crashes, BreakerTrips int
	// Expired counts requests dropped because their deadline passed
	// before an instance picked them up — no service time was charged
	// for them. Distinct from Failed (lost to faults) and from the
	// cluster's Shed (refused by admission before reaching a host).
	Expired int
	// Browned counts service windows started in degraded (brownout)
	// mode: RequestWork skipped, application work halved.
	Browned int
	// ScaleUps and ScaleDowns count autoscaler resize decisions.
	ScaleUps, ScaleDowns int
	// PeakInstances is the largest fleet observed; FinalInstances the
	// fleet left warm when the trace drained. Under ServeParallel both
	// are summed across shards.
	PeakInstances, FinalInstances int
	// Duration is the virtual makespan: first arrival to last
	// completion.
	Duration time.Duration
	// Busy is the total service time across all completed requests —
	// the fleet's aggregate busy-clock. Utilization over a run is
	// Busy / (Duration x serving capacity); the cluster layer reports
	// it per host.
	Busy time.Duration
	// Boot holds per-boot total times (prewarm, cold and scale-up
	// boots); Latency holds end-to-end request latencies (queue wait +
	// boot wait + service).
	Boot Histogram
	// ColdBoot holds only the demand-driven cold instantiations —
	// the boots a request actually waited on — so serve reports quote
	// cold-start p50/p99 separately from prewarm and scale-up boots.
	ColdBoot Histogram
	// Latency holds end-to-end request latencies.
	Latency Histogram
	// Series, when Config.SeriesWindow > 0, holds one latency histogram
	// per completion-time window: Series[i] covers completions in
	// [i*W, (i+1)*W). Shard merges are element-wise (all shards share
	// the virtual timeline), so the merged series is the cluster-wide
	// latency timeline the chaos experiment reads recovery time off.
	Series []Histogram
}

// Completed is Requests minus Failed minus Expired — the requests that
// actually got a response.
func (r *Report) Completed() int { return r.Requests - r.Failed - r.Expired }

// WarmHitRatio is WarmHits / Requests, the pool's headline number.
func (r *Report) WarmHitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.WarmHits) / float64(r.Requests)
}

// Throughput is Requests per second of virtual makespan.
func (r *Report) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Duration.Seconds()
}

// Merge folds another report's aggregates into r: counters add,
// histograms merge bucket-wise, and the makespan is the max. Used by
// ServeParallel for the deterministic shard merge.
func (r *Report) Merge(o *Report) {
	r.Requests += o.Requests
	r.WarmHits += o.WarmHits
	r.ColdBoots += o.ColdBoots
	r.ForkBoots += o.ForkBoots
	r.Queued += o.Queued
	r.Resets += o.Resets
	r.Retired += o.Retired
	r.Failed += o.Failed
	r.Retried += o.Retried
	r.Crashes += o.Crashes
	r.BreakerTrips += o.BreakerTrips
	r.Expired += o.Expired
	r.Browned += o.Browned
	r.ScaleUps += o.ScaleUps
	r.ScaleDowns += o.ScaleDowns
	r.PeakInstances += o.PeakInstances
	r.FinalInstances += o.FinalInstances
	if o.Duration > r.Duration {
		r.Duration = o.Duration
	}
	r.Busy += o.Busy
	r.Boot.Merge(&o.Boot)
	r.ColdBoot.Merge(&o.ColdBoot)
	r.Latency.Merge(&o.Latency)
	for len(r.Series) < len(o.Series) {
		r.Series = append(r.Series, Histogram{})
	}
	for i := range o.Series {
		r.Series[i].Merge(&o.Series[i])
	}
}

// String renders the multi-line summary ukserve prints.
func (r *Report) String() string {
	routing := fmt.Sprintf("routing  warm=%d (%.2f%%) cold=%d queued=%d",
		r.WarmHits, 100*r.WarmHitRatio(), r.ColdBoots, r.Queued)
	if r.ForkBoots > 0 {
		routing += fmt.Sprintf(" forked=%d", r.ForkBoots)
	}
	out := fmt.Sprintf(
		"served   %d requests in %v (%.0f req/s)\n"+
			"%s\n"+
			"fleet    peak=%d final=%d scale-ups=%d scale-downs=%d retired=%d resets=%d\n"+
			"boot     %v\n",
		r.Requests, r.Duration.Round(time.Microsecond), r.Throughput(),
		routing,
		r.PeakInstances, r.FinalInstances, r.ScaleUps, r.ScaleDowns, r.Retired, r.Resets,
		&r.Boot)
	if r.ColdBoot.Count > 0 {
		out += fmt.Sprintf("coldboot %v\n", &r.ColdBoot)
	}
	if r.Crashes > 0 || r.Failed > 0 || r.Retried > 0 {
		out += fmt.Sprintf("faults   crashes=%d retried=%d failed=%d breaker-trips=%d\n",
			r.Crashes, r.Retried, r.Failed, r.BreakerTrips)
	}
	if r.Expired > 0 || r.Browned > 0 {
		out += fmt.Sprintf("overload expired=%d browned=%d\n", r.Expired, r.Browned)
	}
	return out + fmt.Sprintf("latency  %v", &r.Latency)
}

// serveState is the per-Serve bookkeeping threaded through the event
// handlers. The handlers themselves (arrival, autoscaler tick, and the
// per-instance timer) are embedded reusable structs: the steady-state
// serving loop schedules by pointer and allocates nothing per event.
type serveState struct {
	loop  sim.Loop
	w     Workload
	wDone bool
	rep   *Report
	err   error

	busy     int
	booting  int // cold + scale-up boots in flight
	bootWait int // subset of booting with a request waiting on the boot
	queue    deque[Request]
	lastEnd  time.Duration

	arrEv  arrivalEvent
	tickEv tickEvent

	// autoscaler window
	winArrivals int
	winCold     int
	winLat      Histogram
	ewmaService time.Duration
	// ewmaBoot tracks instantiation cost (full boots or forks): the
	// autoscaler's Little's-law sizing includes the boot residence of
	// the window's cold share, so a cheaper cold boot — the snapshot
	// fork — directly shrinks the warm set the controller keeps.
	ewmaBoot time.Duration
}

// observeBoot feeds one instantiation time into the autoscaler's boot
// cost model (alpha = 1/8, like the service EWMA).
func (st *serveState) observeBoot(d time.Duration) {
	if st.ewmaBoot == 0 {
		st.ewmaBoot = d
	} else {
		st.ewmaBoot += (d - st.ewmaBoot) / 8
	}
}

// arrivalEvent delivers the next workload request; exactly one is
// outstanding at a time, so one embedded instance is recycled for the
// whole trace.
type arrivalEvent struct {
	p   *Pool
	st  *serveState
	req Request
}

func (e *arrivalEvent) Fire(now time.Duration) { e.p.arrive(e.st, e.req, now) }

// tickEvent is the autoscaler timer; it reschedules itself.
type tickEvent struct {
	p  *Pool
	st *serveState
}

func (e *tickEvent) Fire(now time.Duration) { e.p.tick(e.st, now) }

// instEvent kinds.
const (
	evComplete  = iota // service finished: record latency, free the instance
	evBootReady        // cold boot finished: serve the request that triggered it
	evReady            // instance dispatchable (scale-up boot or recycle done)
	evCrash            // instance fail-stopped mid-request (fault hazard)
)

// instEvent is the per-instance timer payload (see instance.ev).
type instEvent struct {
	p    *Pool
	st   *serveState
	inst *instance
	kind int
	req  Request       // evBootReady: the request waiting on this boot; evCrash: the victim
	lat  time.Duration // evComplete: end-to-end latency
	svc  time.Duration // evComplete: service time for the EWMA; evCrash: partial work burned
}

func (e *instEvent) Fire(now time.Duration) {
	p, st := e.p, e.st
	switch e.kind {
	case evComplete:
		st.busy--
		if now > st.lastEnd {
			st.lastEnd = now
		}
		st.rep.Latency.Record(e.lat)
		st.rep.Busy += e.svc
		st.winLat.Record(e.lat)
		if w := p.cfg.SeriesWindow; w > 0 {
			idx := int(now / w)
			for len(st.rep.Series) <= idx {
				st.rep.Series = append(st.rep.Series, Histogram{})
			}
			st.rep.Series[idx].Record(e.lat)
		}
		// EWMA of service time feeds the autoscaler's Little's-law
		// estimate (alpha = 1/8).
		if st.ewmaService == 0 {
			st.ewmaService = e.svc
		} else {
			st.ewmaService += (e.svc - st.ewmaService) / 8
		}
		p.finishInstance(st, e.inst, now)
	case evBootReady:
		st.booting--
		st.bootWait--
		p.startService(st, e.inst, e.req, now)
	case evReady:
		st.booting--
		p.dispatch(st, e.inst, now)
	case evCrash:
		st.busy--
		if now > st.lastEnd {
			st.lastEnd = now
		}
		// Copy the victim out first: e aliases inst.ev, which
		// crashInstance reuses for the restarted instance's ready event.
		req := e.req
		st.rep.Crashes++
		st.rep.Busy += e.svc // the partial work burned before the crash
		p.crashInstance(st, e.inst, now)
		if req.Attempt >= p.cfg.CrashRetries {
			st.rep.Failed++
		} else {
			req.Attempt++
			st.rep.Retried++
			p.redispatch(st, req, now)
		}
	}
}

// Prewarm boots the fleet up to n instances (batched, concurrently),
// recording nothing. Serve prewarms to MinWarm automatically; callers
// that want boot costs off the serving path can prewarm larger sets
// explicitly.
func (p *Pool) Prewarm(n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("ukpool: prewarm on closed pool")
	}
	insts, err := p.bootBatch(n - len(p.fleet))
	if err != nil {
		return err
	}
	for _, inst := range insts {
		p.idle.pushBack(inst)
	}
	return nil
}

// Serve routes every request of w through the fleet on a fresh
// virtual-time event loop and reports what happened. Warm instances
// serve immediately; misses cold-boot (paying the full boot pipeline on
// a fresh per-instance machine) up to MaxInstances, beyond which
// requests queue FIFO. The autoscaler resizes the warm set every
// ScaleWindow from the observed arrival rate, mean service time and
// window p99.
//
// Serve is deterministic: same workload, same config, same report.
// Concurrent Serve calls are safe and serialize.
func (p *Pool) Serve(w Workload) (*Report, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.serveLocked(w, 0)
}

// ServeOpts parameterizes ServeWith beyond the plain Serve contract.
type ServeOpts struct {
	// Shards > 1 runs the sharded parallel engine (see ServeParallel).
	Shards int
	// CrashAt, when > 0, fail-stops the host at that virtual time:
	// events through CrashAt dispatch normally, then everything still
	// outstanding — in service, queued, waiting on a boot, or not yet
	// delivered — counts Failed. The cluster serves a crashed host's
	// pre-crash sub-trace this way.
	CrashAt time.Duration
}

// ServeWith is Serve with options: the cluster's entry point for
// serving a host that fail-stops mid-trace, sharded or not.
func (p *Pool) ServeWith(w Workload, o ServeOpts) (*Report, error) {
	if o.Shards > 1 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.serveParallelLocked(w, o.Shards, o.CrashAt)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.serveLocked(w, o.CrashAt)
}

// newLoop builds the event-loop engine a serve runs on: the configured
// one, or the timer wheel by default.
func (p *Pool) newLoop() sim.Loop {
	if p.cfg.NewLoop != nil {
		return p.cfg.NewLoop()
	}
	return sim.NewEventLoop()
}

func (p *Pool) serveLocked(w Workload, crashAt time.Duration) (*Report, error) {
	if p.closed {
		return nil, fmt.Errorf("ukpool: serve on closed pool")
	}
	if err := p.cfg.validate(); err != nil {
		return nil, err
	}

	st := &serveState{loop: p.newLoop(), w: w, rep: &Report{}}
	st.arrEv = arrivalEvent{p: p, st: st}
	st.tickEv = tickEvent{p: p, st: st}

	// Warm floor first, so steady traffic starts against a warm fleet.
	insts, err := p.bootBatch(p.cfg.MinWarm - len(p.fleet))
	if err != nil {
		return nil, err
	}
	for _, inst := range insts {
		st.rep.Boot.Record(inst.bootDur)
		st.observeBoot(inst.bootDur)
		p.idle.pushBack(inst)
	}
	if p.cfg.ForkBoot != nil {
		st.rep.ForkBoots += len(insts)
	}
	st.rep.PeakInstances = len(p.fleet)

	p.scheduleArrival(st)
	if p.cfg.Autoscale {
		st.loop.ScheduleAfter(p.cfg.ScaleWindow, &st.tickEv)
	}
	if crashAt > 0 {
		for {
			t, ok := st.loop.Peek()
			if !ok || t > crashAt {
				break
			}
			st.loop.Step()
		}
		p.failStop(st)
	} else {
		st.loop.Run()
	}
	// Requests still queued when the loop drained can only happen under
	// faults (the breaker emptied the fleet with the autoscaler off);
	// account them as lost rather than dropping them silently.
	for st.queue.len() > 0 {
		st.queue.popFront()
		st.rep.Failed++
	}

	st.rep.Duration = st.lastEnd
	st.rep.FinalInstances = len(p.fleet)
	if st.err != nil {
		return st.rep, st.err
	}
	return st.rep, nil
}

// failStop accounts a fail-stop crash of the whole host: requests in
// service, waiting on boots, queued, or consumed from the workload but
// never delivered are all Failed. Their partially-burned service is
// not charged — the host that did the work is gone.
func (p *Pool) failStop(st *serveState) {
	st.rep.Failed += st.busy + st.bootWait + st.queue.len()
	st.busy, st.bootWait, st.booting = 0, 0, 0
	for st.queue.len() > 0 {
		st.queue.popFront()
	}
	if !st.wDone {
		// The arrival already scheduled but never dispatched, then the
		// rest of the trace.
		st.rep.Requests++
		st.rep.Failed++
		for {
			if _, ok := st.w.Next(); !ok {
				break
			}
			st.rep.Requests++
			st.rep.Failed++
		}
		st.wDone = true
	}
}

// ServeParallel shards the trace and the fleet across per-shard event
// loops on separate goroutines and merges the shard reports in shard
// order — the scale-out path for multi-million-request traces that a
// single event loop serves sequentially.
//
// Requests are partitioned round-robin onto shards (deterministic: the
// partition depends only on arrival order); each shard runs the same
// serving algorithm as Serve over its own sub-fleet with MinWarm,
// MaxInstances and ColdBurst split evenly; instance ids are interleaved
// (shard i boots ids i, i+shards, ...) so per-instance boot seeds stay
// disjoint and reproducible. The merged report is therefore identical
// across runs regardless of goroutine scheduling, and with shards <= 1
// ServeParallel is exactly Serve.
//
// Shard fleets are per-call: each run boots them fresh (their boots are
// recorded in the report, like Serve's warm floor) and closes them when
// the trace drains. The pool's own fleet — including anything
// Prewarmed — is left untouched for subsequent Serve calls; callers
// alternating between the two engines should Prewarm only for the
// sequential one.
func (p *Pool) ServeParallel(w Workload, shards int) (*Report, error) {
	if shards <= 1 {
		return p.Serve(w)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.serveParallelLocked(w, shards, 0)
}

func (p *Pool) serveParallelLocked(w Workload, shards int, crashAt time.Duration) (*Report, error) {
	if shards <= 1 {
		return p.serveLocked(w, crashAt)
	}
	if p.closed {
		return nil, fmt.Errorf("ukpool: serve on closed pool")
	}
	if err := p.cfg.validate(); err != nil {
		return nil, err
	}

	parts := make([][]Request, shards)
	for i := 0; ; i++ {
		req, ok := w.Next()
		if !ok {
			break
		}
		parts[i%shards] = append(parts[i%shards], req)
	}

	// Shard instance ids start past everything this pool ever issued, so
	// BootFunc's id-uniqueness contract (and the per-id boot seeds
	// derived from it) holds even when Serve/Prewarm ran first.
	base := p.nextID
	ceil := func(v int) int { return (v + shards - 1) / shards }
	children := make([]*Pool, shards)
	for s := 0; s < shards; s++ {
		cfg := p.cfg
		cfg.MinWarm = ceil(cfg.MinWarm)
		cfg.MaxInstances = ceil(cfg.MaxInstances)
		cfg.ColdBurst = ceil(cfg.ColdBurst)
		if cfg.BrownoutWater > 0 {
			cfg.BrownoutWater = ceil(cfg.BrownoutWater)
		}
		// The template (and its OnClose hook) stays with the parent:
		// children remap instance ids into the parent's fork/boot funcs
		// and must not release shared state when they close.
		cfg.OnClose = nil
		shard := s
		remap := func(id int) int { return base + id*shards + shard }
		if fork := p.cfg.ForkBoot; fork != nil {
			cfg.ForkBoot = func(id int) (*ukboot.VM, error) { return fork(remap(id)) }
		}
		children[s] = &Pool{cfg: cfg, boot: func(id int) (*ukboot.VM, error) {
			return p.boot(remap(id))
		}}
	}

	// Shards run under the bounded deterministic worker pool: results
	// land in per-shard slots and merge in shard order below, so the
	// report is independent of which worker ran which shard.
	reps := make([]*Report, shards)
	errs := make([]error, shards)
	sim.ParallelFor(shards, func(s int) {
		c := children[s]
		c.mu.Lock()
		reps[s], errs[s] = c.serveLocked(NewTrace(parts[s]), crashAt)
		c.mu.Unlock()
	})

	// Burn the id range the shards consumed so later Serve calls on
	// this pool cannot collide with it.
	maxChild := 0
	for _, c := range children {
		if c.nextID > maxChild {
			maxChild = c.nextID
		}
	}
	p.nextID = base + maxChild*shards

	merged := &Report{}
	var firstErr error
	for s := 0; s < shards; s++ {
		if errs[s] != nil && firstErr == nil {
			firstErr = fmt.Errorf("ukpool: shard %d: %w", s, errs[s])
		}
		if reps[s] != nil {
			merged.Merge(reps[s])
		}
		children[s].Close()
	}
	if firstErr != nil {
		return merged, firstErr
	}
	return merged, nil
}

// scheduleArrival pulls the next request off the workload and schedules
// its arrival event.
func (p *Pool) scheduleArrival(st *serveState) {
	if st.err != nil {
		st.wDone = true
		return
	}
	req, ok := st.w.Next()
	if !ok {
		st.wDone = true
		return
	}
	st.arrEv.req = req
	st.loop.ScheduleAt(req.Arrival, &st.arrEv)
}

// expired reports whether req's deadline (if any) has passed at now.
func expired(req Request, now time.Duration) bool {
	return req.Deadline > 0 && now >= req.Deadline
}

// arrive routes one request: warm hit, cold boot, or queue.
func (p *Pool) arrive(st *serveState, req Request, now time.Duration) {
	st.rep.Requests++
	st.winArrivals++
	if p.cfg.DefaultDeadline > 0 && req.Deadline == 0 {
		origin := req.Arrival
		if req.Origin != 0 {
			origin = req.Origin
		}
		req.Deadline = origin + p.cfg.DefaultDeadline
	}
	// A request can show up dead on arrival when routing and link delay
	// already ate its whole allowance; booting or queueing for it would
	// be pure waste.
	if expired(req, now) {
		st.rep.Expired++
		p.scheduleArrival(st)
		return
	}
	switch {
	case p.idle.len() > 0:
		inst := p.takeIdle()
		st.rep.WarmHits++
		p.startService(st, inst, req, now)
	case len(p.fleet) < p.cfg.MaxInstances && st.booting < p.cfg.ColdBurst:
		st.rep.ColdBoots++
		st.winCold++
		inst, err := p.bootOne()
		if err != nil {
			st.err = fmt.Errorf("ukpool: cold boot: %w", err)
			break
		}
		if p.cfg.ForkBoot != nil {
			st.rep.ForkBoots++
		}
		st.rep.Boot.Record(inst.bootDur)
		st.rep.ColdBoot.Record(inst.bootDur)
		st.observeBoot(inst.bootDur)
		if len(p.fleet) > st.rep.PeakInstances {
			st.rep.PeakInstances = len(p.fleet)
		}
		st.booting++
		st.bootWait++
		inst.ev = instEvent{p: p, st: st, inst: inst, kind: evBootReady, req: req}
		st.loop.ScheduleAt(now+inst.bootDur, &inst.ev)
	default:
		st.rep.Queued++
		st.queue.pushBack(req)
	}
	p.scheduleArrival(st)
}

// startService charges the request's work to the instance's own CPU and
// schedules the completion on the instance's reusable event. Requests
// whose deadline passed while they waited (on a boot, in the queue, or
// between crash retries) are dropped here, before any service time is
// charged, and the instance goes back to draining the queue.
func (p *Pool) startService(st *serveState, inst *instance, req Request, now time.Duration) {
	if expired(req, now) {
		st.rep.Expired++
		p.dispatch(st, inst, now)
		return
	}
	brown := p.cfg.BrownoutWater > 0 && st.queue.len() >= p.cfg.BrownoutWater
	if brown {
		st.rep.Browned++
	}
	svc := p.serviceTime(inst, req.Bytes, brown)
	if f := p.cfg.SlowFactor; f > 1 && now >= p.cfg.SlowFrom &&
		(p.cfg.SlowTo <= p.cfg.SlowFrom || now < p.cfg.SlowTo) {
		svc = time.Duration(float64(svc) * f)
	}
	st.busy++
	// The fault hazard flips the request's deterministic coin: on a
	// crash the instance dies a fraction of the way through the service
	// window and only that partial work happens.
	if crash, frac := p.cfg.Faults.Draw(p.cfg.FaultSeed, req.Arrival, req.Bytes, req.Key, req.Attempt); crash {
		partial := time.Duration(float64(svc) * frac)
		inst.ev = instEvent{p: p, st: st, inst: inst, kind: evCrash, req: req, svc: partial}
		st.loop.ScheduleAt(now+partial, &inst.ev)
		return
	}
	done := now + svc
	// Latency runs from the request's origin: its front-door arrival
	// when the cluster router stamped one, its host arrival otherwise —
	// so queue wait, boot wait, service and any routing delay all count.
	origin := req.Arrival
	if req.Origin != 0 {
		origin = req.Origin
	}
	inst.ev = instEvent{
		p: p, st: st, inst: inst,
		kind: evComplete,
		lat:  done - origin,
		svc:  svc,
	}
	st.loop.ScheduleAt(done, &inst.ev)
}

// crashInstance replaces (or retires) an instance that fail-stopped
// mid-request. Below the breaker threshold the slot is restarted
// through the usual spawn path — a fork clone when the pool has a
// snapshot template, the "restart is cheaper than tolerating a sick
// instance" economics the fault model exists to exercise. At the
// threshold the circuit breaker gives up on the slot: repeated crashes
// point at the instance's state, and re-forking it forever would burn
// boot capacity for nothing.
func (p *Pool) crashInstance(st *serveState, inst *instance, now time.Duration) {
	inst.crashes++
	old := inst.vm
	if p.cfg.BreakerAfter > 0 && inst.crashes >= p.cfg.BreakerAfter {
		st.rep.BreakerTrips++
		p.dropSlot(inst)
		old.Close()
		return
	}
	old.Close()
	id := p.nextID
	p.nextID++
	vm, err := p.spawn(id)
	if err != nil {
		st.err = fmt.Errorf("ukpool: restart crashed instance %d: %w", inst.id, err)
		p.dropSlot(inst)
		return
	}
	inst.id, inst.vm, inst.served = id, vm, 0
	inst.bootDur = vm.Report.Total()
	st.rep.Boot.Record(inst.bootDur)
	st.observeBoot(inst.bootDur)
	if p.cfg.ForkBoot != nil {
		st.rep.ForkBoots++
	}
	st.booting++
	inst.ev = instEvent{p: p, st: st, inst: inst, kind: evReady}
	st.loop.ScheduleAt(now+inst.bootDur, &inst.ev)
}

// dropSlot removes inst from the fleet without touching its VM (the
// caller owns closing it — it may already be dead).
func (p *Pool) dropSlot(inst *instance) {
	last := len(p.fleet) - 1
	i := inst.fleetIdx
	p.fleet[i] = p.fleet[last]
	p.fleet[i].fleetIdx = i
	p.fleet[last] = nil
	p.fleet = p.fleet[:last]
}

// redispatch re-enters a crashed request: straight onto a warm
// instance when one is idle, else the queue (its latency keeps running
// from the original origin, so the crash detour shows up in the tail).
func (p *Pool) redispatch(st *serveState, req Request, now time.Duration) {
	if p.idle.len() > 0 {
		p.startService(st, p.takeIdle(), req, now)
		return
	}
	st.rep.Queued++
	st.queue.pushBack(req)
}

// finishInstance recycles the instance if due, then dispatches it. The
// heap re-init is charged to the instance clock AND delays its next
// dispatch by the same amount on the shared timeline — a recycling
// instance is not serving.
func (p *Pool) finishInstance(st *serveState, inst *instance, now time.Duration) {
	inst.served++
	inst.crashes = 0 // a completed request closes the breaker's strike count
	if p.cfg.RecycleEvery > 0 && inst.served >= p.cfg.RecycleEvery {
		m := inst.vm.Machine
		start := m.CPU.Cycles()
		if err := inst.vm.Reset(); err != nil {
			st.err = fmt.Errorf("ukpool: recycle instance %d: %w", inst.id, err)
			return
		}
		inst.served = 0
		st.rep.Resets++
		resetDur := m.CPU.Duration(m.CPU.Cycles() - start)
		st.booting++ // out of rotation until the re-init completes
		inst.ev = instEvent{p: p, st: st, inst: inst, kind: evReady}
		st.loop.ScheduleAt(now+resetDur, &inst.ev)
		return
	}
	p.dispatch(st, inst, now)
}

// serviceTime performs one request's work on the instance: syscalls
// through the shim, two virtqueue kicks (amortized over KickBatch),
// payload copies in and out (elided under ZeroCopy), the application
// cycles, and a real malloc/free of the payload buffer on the instance
// heap. In brownout mode the application work halves and RequestWork is
// skipped — the degraded variant a
// pressured server answers with instead of dropping.
func (p *Pool) serviceTime(inst *instance, bytes int, brown bool) time.Duration {
	m := inst.vm.Machine
	start := m.CPU.Cycles()
	kicks := 2 * m.Costs.VMExit / uint64(p.cfg.KickBatch)
	app := p.cfg.AppCycles
	if brown {
		app /= 2
	}
	m.Charge(uint64(p.cfg.SyscallsPerRequest)*m.Costs.UnikraftSyscall +
		kicks + app)
	if !p.cfg.ZeroCopy {
		m.ChargeCopy(bytes) // rx
		m.ChargeCopy(bytes) // tx
	}
	if bytes > 0 {
		if ptr, err := inst.vm.Heap.Malloc(bytes); err == nil {
			_ = inst.vm.Heap.Free(ptr)
		}
	}
	if p.cfg.RequestWork != nil && !brown {
		p.reqSeq++
		p.cfg.RequestWork(inst.vm, p.reqSeq)
	}
	return m.CPU.Duration(m.CPU.Cycles() - start)
}

// headroom multiplies the Little's-law concurrency estimate (arrival
// rate x effective residence time) when the autoscaler sizes the warm
// set.
const headroom = 2.0

// tick is one autoscaler evaluation: size the warm set from the
// window's arrival rate and the service-time EWMA (Little's law with
// headroom), and override upward when the window p99 blows the SLO.
func (p *Pool) tick(st *serveState, now time.Duration) {
	if st.err != nil {
		return // the serve run is failing; stop resizing and let it drain
	}
	rate := float64(st.winArrivals) / p.cfg.ScaleWindow.Seconds()
	desired := p.cfg.MinWarm
	if st.ewmaService > 0 {
		// Little's law over the effective residence time: service plus
		// the boot latency paid by the window's cold share. Expensive
		// boots make misses costly, so the controller holds more warm
		// capacity; snapshot forks shrink the term — and the fleet —
		// for the same traffic.
		eff := st.ewmaService
		if st.winArrivals > 0 && st.winCold > 0 && st.ewmaBoot > 0 {
			eff += time.Duration(float64(st.ewmaBoot) * float64(st.winCold) / float64(st.winArrivals))
		}
		need := int(math.Ceil(rate * eff.Seconds() * headroom))
		if need > desired {
			desired = need
		}
	}
	if st.winLat.Count > 0 && p.cfg.TargetP99 > 0 && st.winLat.Quantile(0.99) > p.cfg.TargetP99 {
		grow := len(p.fleet) + (len(p.fleet)+1)/2
		if grow > desired {
			desired = grow
		}
	}
	if desired > p.cfg.MaxInstances {
		desired = p.cfg.MaxInstances
	}

	switch {
	case desired > len(p.fleet):
		st.rep.ScaleUps++
		insts, err := p.bootBatch(desired - len(p.fleet))
		if err != nil {
			st.err = fmt.Errorf("ukpool: scale-up: %w", err)
			return
		}
		if p.cfg.ForkBoot != nil {
			st.rep.ForkBoots += len(insts)
		}
		for _, inst := range insts {
			st.rep.Boot.Record(inst.bootDur)
			st.observeBoot(inst.bootDur)
			st.booting++
			inst.ev = instEvent{p: p, st: st, inst: inst, kind: evReady}
			st.loop.ScheduleAt(now+inst.bootDur, &inst.ev)
		}
		if len(p.fleet) > st.rep.PeakInstances {
			st.rep.PeakInstances = len(p.fleet)
		}
	case desired < len(p.fleet) && p.idle.len() > 0:
		n := len(p.fleet) - desired
		if n > p.idle.len() {
			n = p.idle.len()
		}
		st.rep.ScaleDowns++
		for i := 0; i < n; i++ {
			p.retire(p.takeColdest())
			st.rep.Retired++
		}
	}

	st.winArrivals = 0
	st.winCold = 0
	st.winLat = Histogram{}
	if !st.wDone || st.busy > 0 || st.booting > 0 || st.queue.len() > 0 {
		st.loop.ScheduleAfter(p.cfg.ScaleWindow, &st.tickEv)
	}
}

// dispatch routes a ready instance: the oldest still-live queued
// request if any are waiting, else back to the warm set. Queued
// requests whose deadline passed while they waited are discarded here —
// iteratively, so a long run of expired entries never recurses — which
// is what keeps an expired request from ever being served ahead of a
// live one.
func (p *Pool) dispatch(st *serveState, inst *instance, now time.Duration) {
	for st.queue.len() > 0 {
		req := st.queue.popFront()
		if expired(req, now) {
			st.rep.Expired++
			continue
		}
		p.startService(st, inst, req, now)
		return
	}
	p.idle.pushBack(inst)
}

// takeIdle pops the most recently idled instance (LIFO keeps the hot
// few instances hot and lets the tail go cold for retirement).
func (p *Pool) takeIdle() *instance { return p.idle.popBack() }

// takeColdest pops the longest-idle instance — the retirement end of
// the deque.
func (p *Pool) takeColdest() *instance { return p.idle.popFront() }

// retire removes inst from the fleet (O(1) via its fleet index) and
// releases its resources.
func (p *Pool) retire(inst *instance) {
	p.dropSlot(inst)
	inst.vm.Close()
}

// spawn instantiates one fresh instance: the snapshot-fork path when
// the pool has one, the full boot pipeline otherwise.
func (p *Pool) spawn(id int) (*ukboot.VM, error) {
	if p.cfg.ForkBoot != nil {
		return p.cfg.ForkBoot(id)
	}
	return p.boot(id)
}

// bootOne boots a single instance and adds it to the fleet (not idle:
// the caller owns routing it).
func (p *Pool) bootOne() (*instance, error) {
	id := p.nextID
	p.nextID++
	vm, err := p.spawn(id)
	if err != nil {
		return nil, err
	}
	inst := &instance{id: id, vm: vm, bootDur: vm.Report.Total(), fleetIdx: len(p.fleet)}
	p.fleet = append(p.fleet, inst)
	return inst, nil
}

// bootBatch boots n instances concurrently on their own machines under
// the bounded worker pool — the batched scale-up path. Ids are assigned
// up front and instances are added to the fleet in id order so runs
// stay deterministic. On any failure the successful boots are closed
// and the first error returned.
func (p *Pool) bootBatch(n int) ([]*instance, error) {
	if n <= 0 {
		return nil, nil
	}
	insts := make([]*instance, n)
	errs := make([]error, n)
	firstID := p.nextID
	p.nextID += n
	sim.ParallelFor(n, func(slot int) {
		id := firstID + slot
		vm, err := p.spawn(id)
		if err != nil {
			errs[slot] = err
			return
		}
		insts[slot] = &instance{id: id, vm: vm, bootDur: vm.Report.Total()}
	})
	for _, err := range errs {
		if err != nil {
			for _, inst := range insts {
				if inst != nil {
					inst.vm.Close()
				}
			}
			return nil, err
		}
	}
	for _, inst := range insts {
		inst.fleetIdx = len(p.fleet)
		p.fleet = append(p.fleet, inst)
	}
	return insts, nil
}
