// Package ukcluster is the multi-host control plane: it scales the
// warm-pool serving layer (internal/ukpool) from one simulated host to
// a fleet of them. A Cluster owns N hosts — each with its own ukpool
// fleet, per-host machines and (during a serve) its own event-loop
// shard — behind a front-door L4/L7 router that balances requests
// across hosts (round-robin, least-loaded, or consistent-hash session
// affinity), autoscales the *host* set by spilling load onto standby
// hosts with hysteresis, and seeds newly activated hosts by
// snapshot-image handoff: the warm boot template minted on the seed
// host is shipped over a priced inter-host link so remote scale-out
// pays transfer + attach instead of a full cold template boot.
//
// Determinism is inherited from ukpool's sharded execution model: a
// serve runs in two phases. Phase one — the front door — is a single
// sequential pass over the trace that prices routing on the router's
// own machine, tracks per-host outstanding work with a fluid decay
// model (the router's view: it sees what it forwarded, not guest
// internals), and makes every placement, spill and drain decision.
// Phase two serves each host's sub-trace on its own event loop(s) in
// parallel and merges the host reports in host order, exactly like
// Pool.ServeParallel merges shards. Same trace, same config, same
// report — regardless of goroutine scheduling — and a cluster of one
// single-core host is byte-identical to a plain Pool.Serve.
package ukcluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// Policy selects the front door's balancing decision for the first
// packet of each request.
type Policy int

const (
	// LeastLoaded routes to the host with the least outstanding work in
	// the router's fluid model (ties to the lowest host id). The
	// default: it absorbs skew the static policies cannot.
	LeastLoaded Policy = iota
	// RoundRobin cycles through the serving hosts in id order.
	RoundRobin
	// ConsistentHash pins each session key to a host via a virtual-node
	// hash ring, so a session keeps hitting the same host's caches as
	// the serving set grows and shrinks; anonymous requests (key 0)
	// fall back to least-loaded.
	ConsistentHash
)

// String names the policy the way flags and reports spell it.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case ConsistentHash:
		return "hash"
	default:
		return "least-loaded"
	}
}

// PolicyByName parses a policy name ("least-loaded", "round-robin",
// "hash").
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded, nil
	case "round-robin":
		return RoundRobin, nil
	case "hash", "consistent-hash":
		return ConsistentHash, nil
	}
	return 0, fmt.Errorf("ukcluster: unknown affinity policy %q (have least-loaded, round-robin, hash)", name)
}

// Link prices the network between the front door and the hosts (and
// between hosts, for snapshot-image handoff).
type Link struct {
	// BytesPerSec is the link bandwidth (default 1.25e9: 10 GbE).
	BytesPerSec int64
	// RTT is the round-trip time between any two boxes (default 40µs,
	// a same-rack figure).
	RTT time.Duration
}

// serialize is the store-and-forward serialization delay of bytes.
func (l Link) serialize(bytes int) time.Duration {
	if bytes <= 0 || l.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / float64(l.BytesPerSec) * float64(time.Second))
}

// ForwardDelay is the one-way latency of forwarding a request of the
// given size to a host: half an RTT plus serialization.
func (l Link) ForwardDelay(bytes int) time.Duration {
	return l.RTT/2 + l.serialize(bytes)
}

// Transfer is the cost of shipping a bulk payload host-to-host: a full
// RTT (request + first byte back) plus serialization.
func (l Link) Transfer(bytes int) time.Duration {
	return l.RTT + l.serialize(bytes)
}

// Activation prices bringing a standby host into the serving set.
type Activation struct {
	// Handoff enables snapshot-image handoff: the template image ships
	// over the link and is attached, instead of being re-minted by a
	// full boot pipeline on the new host.
	Handoff bool
	// ImageBytes is the serialized template size: the COW-marked pages
	// plus the heap write-set and region metadata (what
	// ukboot.Snapshot captured).
	ImageBytes int
	// ColdBoot is the full template mint on the remote host — the
	// no-handoff price of scale-out (a template boot through the whole
	// pipeline).
	ColdBoot time.Duration
	// Attach is the receive-side cost of installing a shipped image
	// (mapping pages, COW-arming the table) before the first fork.
	Attach time.Duration
}

// pageDescBytes is the handoff's per-page share-map descriptor.
const pageDescBytes = 16

// SnapshotHandoff prices activation by shipping s's template. The
// receiving host already holds the kernel image (the registry
// distributes those); the handoff ships only the template's post-boot
// delta: the privatized page-table pages, the heap allocator's
// write-set, and a descriptor per COW-marked page so the receiver can
// rebuild the share map — a diff snapshot, not a memory dump. Attach
// is the VMM's fork set-up plus one NIC re-plumb per device; ColdBoot
// is the template's own mint time, the no-handoff alternative.
func SnapshotHandoff(s *ukboot.Snapshot) Activation {
	tmpl := s.Template()
	return Activation{
		Handoff:    true,
		ImageBytes: s.PrivateOverheadBytes() + s.HeapMetaBytes() + s.MarkedPages()*pageDescBytes,
		ColdBoot:   tmpl.Report.Total(),
		Attach:     tmpl.Platform.ForkSetup + time.Duration(tmpl.Config.NICs)*tmpl.Platform.ForkNICSetup,
	}
}

// Config parameterizes a Cluster. The zero value is not useful; New
// fills every unset field with the defaults documented per field.
type Config struct {
	// Hosts is the total host count, standby included (default 1).
	Hosts int
	// Cores is the per-host serving parallelism: each host serves its
	// sub-trace over this many deterministic event-loop shards
	// (Pool.ServeParallel; default 1).
	Cores int
	// InitialActive is how many hosts (ids 0..n-1) serve from the
	// start; the remainder are standby, activated by spill (default
	// Hosts: a static fleet).
	InitialActive int
	// MinActive is the scale-down floor: drains never shrink the
	// serving set below it, and host 0 — the template holder — is
	// never drained at all (default 1).
	MinActive int
	// Policy is the balancing policy (default LeastLoaded).
	Policy Policy
	// NewPool builds host id's warm pool on first use. Required.
	// Called sequentially (from New for initial hosts, from the
	// routing phase on activation), so implementations need no
	// locking; each host's pool must boot instances on its own
	// machines with host-distinct deterministic seeds.
	NewPool func(host int) (*ukpool.Pool, error)
	// EstService is the router's estimate of per-request work, feeding
	// its fluid outstanding-work model (default 20µs). The router is a
	// front door, not an oracle: it sees its own forwarding decisions,
	// never guest-internal state.
	EstService time.Duration
	// Router prices the front door's per-request work.
	Router netstack.RouterModel
	// Link prices request forwarding and image handoff.
	Link Link
	// Activation prices standby-host bring-up.
	Activation Activation
	// EvalEvery is the cluster autoscaler's evaluation period (default
	// 10ms of virtual time).
	EvalEvery time.Duration
	// HighWater and LowWater are the spill/drain thresholds, in units
	// of EstService of backlog per core (defaults 8 and 1): spill when
	// the serving hosts hold more than HighWater requests' worth of
	// work per core, drain when below LowWater.
	HighWater, LowWater float64
	// SpillAfter and DrainAfter are the hysteresis: how many
	// consecutive evaluation windows the condition must hold before
	// acting (defaults 2 and 8 — the cluster grows eagerly and shrinks
	// reluctantly).
	SpillAfter, DrainAfter int
	// VirtualNodes is the consistent-hash ring density per host
	// (default 64).
	VirtualNodes int
	// NewMachine builds the front door's own machine (default
	// sim.NewMachine).
	NewMachine func() *sim.Machine

	// Faults, when non-nil and carrying cluster-level faults (host
	// crashes or link faults), arms the failure-detection and retry
	// machinery below. A nil or empty plan leaves the serve byte-
	// identical to a cluster built without one.
	Faults *ukfault.Plan
	// ProbeEvery is the health-probe round period (default 5ms);
	// ProbeMisses how many unanswered rounds declare a host dead
	// (default 2); ProbeTimeout the per-probe reply deadline (default
	// 4x Link.RTT). Together they set the failure-detection latency:
	// a crash at T is detected at the ProbeMisses-th missed round's
	// timeout — see detectTime.
	ProbeEvery   time.Duration
	ProbeMisses  int
	ProbeTimeout time.Duration
	// ReplyTimeout is how long the router waits for a forwarded
	// request's reply before declaring the forward lost (default 1ms).
	// Crash detection can beat it: whichever signal lands first
	// triggers the retry.
	ReplyTimeout time.Duration
	// RetryLimit bounds per-request retries of lost forwards (default
	// 3); RetryBackoff is the base of the exponential backoff between
	// attempts (default 250µs); RetryBudget caps retries per trace
	// (default 0: unbounded) so a partition cannot turn the front door
	// into a retry storm.
	RetryLimit   int
	RetryBackoff time.Duration
	RetryBudget  int
	// ShedWater is the admission-control threshold, in units of
	// EstService of backlog per core (default 4x HighWater, evaluated
	// only when a fault plan is armed). Shedding is a last resort:
	// it triggers only when no activatable standby remains — the
	// fleet maxed out or the spares crashed — and the surviving
	// hosts' backlog still exceeds the threshold; arrivals then get a
	// cheap reject instead of queueing without bound.
	ShedWater float64

	// Overload control (all off by default; a config that leaves every
	// field below at its zero value serves byte-identically to one that
	// predates them).

	// AdmitTarget, when > 0, arms the adaptive admission controller:
	// every autoscaler evaluation window the router compares its
	// estimated queue delay (fluid backlog per core) against this
	// target and sheds a proportional fraction of new arrivals when the
	// delay exceeds it — CoDel's insight (control on queueing *delay*,
	// not queue length) applied at the front door, replacing the static
	// ShedWater cliff with a controller that stabilizes the backlog
	// near the target at any overload ratio. Shedding is staged by
	// priority class: batch traffic sheds as soon as the delay crosses
	// AdmitTarget, interactive traffic only past AdmitInteractiveMult
	// times the target. Drop decisions are identity-keyed deterministic
	// draws (AdmitSeed), never rate counters, so they are invariant
	// across shard counts and byte-identical across runs.
	AdmitTarget time.Duration
	// AdmitInteractiveMult is the interactive shed threshold as a
	// multiple of AdmitTarget (default 3).
	AdmitInteractiveMult float64
	// AdmitSeed domain-separates the admission drop draws.
	AdmitSeed uint64
	// DefaultDeadline, when > 0, stamps arrival + DefaultDeadline on
	// every request that reaches the front door without a deadline of
	// its own. The router drops a request whose deadline has passed by
	// the time it dispatches it (a cheap priced expiry instead of a
	// forward), and the deadline rides to the host pool, which drops
	// it from its queue the same way — no service time is ever charged
	// for an answer nobody is waiting for.
	DefaultDeadline time.Duration
	// RetryThrottleRatio, when > 0, arms the retry token bucket: every
	// successful forward earns the bucket RetryThrottleRatio tokens
	// (capped at RetryThrottleBurst) and every retry of a lost forward
	// spends one. When losses outpace successes the bucket empties and
	// further retries are cut (counted Throttled, the request Failed) —
	// retries can never exceed ~RetryThrottleRatio of successful
	// traffic, which bounds the retry-storm positive feedback that
	// RetryLimit and RetryBackoff alone cannot (they bound each
	// request, not the aggregate).
	RetryThrottleRatio float64
	// RetryThrottleBurst is the bucket capacity and initial fill
	// (default 50 when the throttle is armed).
	RetryThrottleBurst float64
}

// overloadControl reports whether any overload-control feature needs
// the front door (admission, default deadlines, retry throttling) —
// the single-host router bypass must not take those away.
func (c *Config) overloadControl() bool {
	return c.AdmitTarget > 0 || c.DefaultDeadline > 0 || c.RetryThrottleRatio > 0
}

// host is one simulated box in the fleet.
type host struct {
	id   int
	pool *ukpool.Pool

	active      bool
	readyAt     time.Duration // activation completes (template present)
	activatedAt time.Duration // -1: initially active

	// Router-side fluid load model: outstanding forwarded work,
	// decaying at Cores' worth of service per unit time.
	backlog time.Duration
	lastUpd time.Duration

	// assigned is this host's sub-trace for the serve in progress.
	assigned []ukpool.Request
	drained  bool

	// crashed marks a host between crash detection and rejoin: out of
	// the serving set and not activatable. crashedAt is the fail-stop
	// instant (not the detection).
	crashed   bool
	crashedAt time.Duration
}

// Cluster is a fleet of hosts behind one front door. All methods are
// safe for concurrent use; concurrent Serve calls serialize.
type Cluster struct {
	cfg Config

	mu     sync.Mutex
	hosts  []*host
	closed bool
}

// New builds a cluster over cfg, constructing the pools of the
// initially active hosts. Standby hosts stay unbuilt until a spill
// activates them.
func New(cfg Config) (*Cluster, error) {
	if cfg.NewPool == nil {
		return nil, fmt.Errorf("ukcluster: Config.NewPool is required")
	}
	if cfg.Hosts < 1 {
		cfg.Hosts = 1
	}
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.InitialActive < 1 || cfg.InitialActive > cfg.Hosts {
		cfg.InitialActive = cfg.Hosts
	}
	if cfg.MinActive < 1 {
		cfg.MinActive = 1
	}
	if cfg.MinActive > cfg.InitialActive {
		cfg.MinActive = cfg.InitialActive
	}
	if cfg.EstService <= 0 {
		cfg.EstService = 20 * time.Microsecond
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 10 * time.Millisecond
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = 8
	}
	if cfg.LowWater <= 0 {
		cfg.LowWater = 1
	}
	if cfg.LowWater >= cfg.HighWater {
		cfg.LowWater = cfg.HighWater / 8
	}
	if cfg.SpillAfter < 1 {
		cfg.SpillAfter = 2
	}
	if cfg.DrainAfter < 1 {
		cfg.DrainAfter = 8
	}
	if cfg.VirtualNodes < 1 {
		cfg.VirtualNodes = 64
	}
	if cfg.Link.BytesPerSec == 0 {
		cfg.Link.BytesPerSec = 1_250_000_000 // 10 GbE
	}
	if cfg.Link.RTT == 0 {
		cfg.Link.RTT = 40 * time.Microsecond
	}
	if cfg.NewMachine == nil {
		cfg.NewMachine = sim.NewMachine
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 5 * time.Millisecond
	}
	if cfg.ProbeMisses < 1 {
		cfg.ProbeMisses = 2
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 4 * cfg.Link.RTT
	}
	if cfg.ReplyTimeout <= 0 {
		cfg.ReplyTimeout = time.Millisecond
	}
	if cfg.RetryLimit < 1 {
		cfg.RetryLimit = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Microsecond
	}
	if cfg.ShedWater <= 0 {
		cfg.ShedWater = 4 * cfg.HighWater
	}
	if cfg.AdmitTarget > 0 && cfg.AdmitInteractiveMult <= 0 {
		cfg.AdmitInteractiveMult = 3
	}
	if cfg.RetryThrottleRatio > 0 && cfg.RetryThrottleBurst <= 0 {
		cfg.RetryThrottleBurst = 50
	}
	if cfg.Link.RTT < 0 || cfg.Link.BytesPerSec < 0 {
		return nil, fmt.Errorf("ukcluster: negative link (RTT %v, %d B/s)", cfg.Link.RTT, cfg.Link.BytesPerSec)
	}
	if err := cfg.Faults.Validate(cfg.Hosts); err != nil {
		return nil, err
	}

	c := &Cluster{cfg: cfg, hosts: make([]*host, cfg.Hosts)}
	for i := range c.hosts {
		c.hosts[i] = &host{id: i, activatedAt: -1}
	}
	for i := 0; i < cfg.InitialActive; i++ {
		pool, err := cfg.NewPool(i)
		if err != nil {
			return nil, fmt.Errorf("ukcluster: host %d pool: %w", i, err)
		}
		c.hosts[i].pool = pool
		c.hosts[i].active = true
	}
	return c, nil
}

// Hosts reports the total host count.
func (c *Cluster) Hosts() int { return c.cfg.Hosts }

// Active reports how many hosts are currently in the serving set.
func (c *Cluster) Active() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, h := range c.hosts {
		if h.active {
			n++
		}
	}
	return n
}

// Close retires every host's pool. The cluster must not be serving.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, h := range c.hosts {
		if h.pool != nil {
			h.pool.Close()
		}
	}
}

// Serve routes every request of w through the fleet and reports what
// happened. With one host the front door is bypassed entirely — the
// report's Pool section is then byte-identical to what that host's
// Pool.Serve (or ServeParallel for Cores > 1) returns. With more, the
// two-phase deterministic engine runs: route sequentially, serve hosts
// in parallel, merge in host order.
func (c *Cluster) Serve(w ukpool.Workload) (*Report, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("ukcluster: serve on closed cluster")
	}

	if c.cfg.Hosts == 1 && !c.cfg.Faults.ClusterFaults() && !c.cfg.overloadControl() {
		rep, err := c.hosts[0].pool.ServeParallel(w, c.cfg.Cores)
		if err != nil {
			return nil, err
		}
		out := &Report{Hosts: 1, Cores: c.cfg.Cores, Policy: c.cfg.Policy,
			Offered: rep.Requests, ActiveStart: 1, ActivePeak: 1, ActiveEnd: 1, Pool: *rep}
		out.fillPerHost([]*ukpool.Report{rep}, []hostMeta{{id: 0, activatedAt: -1}})
		return out, nil
	}

	st, err := c.route(w)
	if err != nil {
		return nil, err
	}
	if err := c.serveHosts(st); err != nil {
		return st.rep, err
	}
	return st.rep, nil
}

// serveHosts is phase two: every host with work (or warm capacity)
// serves its sub-trace on its own event-loop shard(s), concurrently,
// and the reports merge in host order. Wrecks — the detached serving
// state of crashed hosts — serve the same way but with a fail-stop
// cutoff at their crash instant, and merge in host order right before
// any post-rejoin incarnation of the same host.
func (c *Cluster) serveHosts(st *routeState) error {
	rep := st.rep
	type slot struct {
		h    *host
		wr   *wreck
		meta hostMeta
		rep  *ukpool.Report
		err  error
	}
	sortTrace := func(reqs []ukpool.Request) {
		// The sub-trace must be non-decreasing in arrival for the
		// pool; routing emits near-sorted order (size-dependent
		// serialization and requeues can invert neighbors), so
		// restore the invariant deterministically.
		sort.SliceStable(reqs, func(i, j int) bool {
			return reqs[i].Arrival < reqs[j].Arrival
		})
	}
	wreckOf := map[int]*wreck{}
	if st.f != nil {
		for _, wr := range st.f.wrecks {
			wreckOf[wr.hostID] = wr // at most one: a host crashes once per plan
		}
	}
	var slots []*slot
	for _, h := range c.hosts {
		if wr := wreckOf[h.id]; wr != nil {
			sortTrace(wr.assigned)
			slots = append(slots, &slot{h: h, wr: wr, meta: hostMeta{
				id: h.id, activatedAt: wr.activatedAt, crashed: true,
			}})
		}
		if h.pool != nil && (len(h.assigned) > 0 || h.active) {
			sortTrace(h.assigned)
			slots = append(slots, &slot{h: h, meta: hostMeta{
				id: h.id, activatedAt: h.activatedAt, drained: h.drained,
			}})
		}
	}
	// Host loops are independent, so they run under the bounded
	// deterministic worker pool; each slot writes only its own fields
	// and the merge below walks slots in host order, so the report is
	// identical however the workers interleave (and byte-identical to a
	// sequential pass when the pool degenerates to one worker).
	sim.ParallelFor(len(slots), func(i int) {
		s := slots[i]
		if s.wr != nil {
			if len(s.wr.assigned) == 0 {
				// Crashed before any request reached it (e.g. mid
				// handoff): nothing to serve, but the host still
				// shows up per-host as crashed.
				s.rep = &ukpool.Report{}
				return
			}
			s.rep, s.err = s.wr.pool.ServeWith(ukpool.NewTrace(s.wr.assigned),
				ukpool.ServeOpts{Shards: c.cfg.Cores, CrashAt: s.wr.crashedAt})
			return
		}
		s.rep, s.err = s.h.pool.ServeParallel(ukpool.NewTrace(s.h.assigned), c.cfg.Cores)
	})

	reps := make([]*ukpool.Report, 0, len(slots))
	metas := make([]hostMeta, 0, len(slots))
	var firstErr error
	for _, s := range slots {
		if s.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("ukcluster: host %d: %w", s.h.id, s.err)
		}
		if s.rep != nil {
			rep.Pool.Merge(s.rep)
			reps = append(reps, s.rep)
			metas = append(metas, s.meta)
		}
		if s.wr != nil {
			if s.wr.pool != nil {
				s.wr.pool.Close() // the dead fleet; nothing else owns it now
			}
			s.wr.assigned = nil
		} else {
			s.h.assigned = nil
		}
	}
	rep.ActiveEnd = c.serving()
	rep.fillPerHost(reps, metas)
	return firstErr
}
