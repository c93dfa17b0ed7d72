package ukcluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// faultTestConfig is the shared shape for fault tests: six hosts, two
// serving from the start, snapshot handoff priced like the determinism
// test uses.
func faultTestConfig(plan *ukfault.Plan) Config {
	return Config{
		Hosts: 6, Cores: 2, InitialActive: 2, MinActive: 1,
		Activation: Activation{Handoff: true, ImageBytes: 3 << 20, Attach: 50 * time.Microsecond},
		DrainAfter: 4,
		Faults:     plan,
	}
}

// TestEmptyPlanIdentity: arming an empty fault plan must not change a
// single byte of the report — the fault engine is free until a fault
// is actually planned.
func TestEmptyPlanIdentity(t *testing.T) {
	serve := func(plan *ukfault.Plan) *Report {
		c := newTestCluster(t, faultTestConfig(plan))
		defer c.Close()
		rep, err := c.Serve(flashTrace(40_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain, empty := serve(nil), serve(ukfault.New(123))
	if !reflect.DeepEqual(plain, empty) {
		t.Errorf("empty fault plan diverged from fault-free serve:\n%v\n----\n%v", plain, empty)
	}
}

// TestFailoverDeterminism: the full fault engine — crash, detection,
// retries, replacement activation, link faults, VM hazard — reproduces
// bit-for-bit across runs with the same seed and plan.
func TestFailoverDeterminism(t *testing.T) {
	run := func() *Report {
		plan := ukfault.New(31).
			CrashHost(1, 250*time.Millisecond).
			DegradeLink(0, 300*time.Millisecond, 400*time.Millisecond, 20*time.Microsecond, 0.01)
		cfg := faultTestConfig(plan)
		cfg.NewPool = func(host int) (*ukpool.Pool, error) {
			opts := append(testPoolOpts(),
				ukpool.WithCrashHazard(1e-3, ukfault.Mix(31, uint64(host))))
			return ukpool.New(hostBoot(t, host), opts...), nil
		}
		c := newTestCluster(t, cfg)
		defer c.Close()
		rep, err := c.Serve(flashTrace(40_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical fault runs diverged:\n%v\n----\n%v", a, b)
	}
	if a.Crashes != 1 {
		t.Errorf("crashes = %d, want 1", a.Crashes)
	}
	if a.Retried == 0 {
		t.Error("crash at peak never lost a forward to the retry path")
	}
	if a.Pool.Crashes == 0 {
		t.Error("VM hazard never crashed an instance")
	}
	if a.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", a.Dropped())
	}
}

// TestCrashFailover: losing a serving host must be detected from the
// probe schedule, replace itself from standby, mark the dead host's
// rows, and keep every request accounted. The crash lands before the
// flash crowd so standbys are still available for the replacement.
func TestCrashFailover(t *testing.T) {
	plan := ukfault.New(7).CrashHost(1, 150*time.Millisecond)
	cfg := faultTestConfig(plan)
	cfg.MinActive = 2 // keep host 1 serving until the crash takes it
	c := newTestCluster(t, cfg)
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", rep.Crashes)
	}
	if rep.Replacements == 0 {
		t.Error("detection never activated a replacement from standby")
	}
	if rep.Probes == 0 {
		t.Error("failure detection ran without a single priced probe")
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
	crashedRows := 0
	for _, h := range rep.PerHost {
		if h.Crashed {
			crashedRows++
			if h.Host != 1 {
				t.Errorf("host %d marked crashed, plan killed host 1", h.Host)
			}
		}
	}
	if crashedRows == 0 {
		t.Error("no per-host row marked crashed")
	}
	if g := rep.Goodput(); g < 0.95 {
		t.Errorf("goodput %.4f collapsed — failover not absorbing the crash", g)
	}
}

// TestCrashDuringHandoff: a host that fail-stops while its activation
// handoff is still in flight must not wedge the serve — the wreck is
// empty or tiny, a replacement takes over, and nothing is lost
// silently. A punishingly slow link keeps the handoff window open for
// hundreds of milliseconds so the crash is guaranteed to land inside
// it.
func TestCrashDuringHandoff(t *testing.T) {
	run := func() *Report {
		plan := ukfault.New(17).CrashHost(2, 260*time.Millisecond)
		cfg := faultTestConfig(plan)
		cfg.Link = Link{BytesPerSec: 4 << 20, RTT: 200 * time.Microsecond}
		c := newTestCluster(t, cfg)
		defer c.Close()
		rep, err := c.Serve(flashTrace(40_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	if rep.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", rep.Crashes)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
	if other := run(); !reflect.DeepEqual(rep, other) {
		t.Error("crash-during-handoff run is not deterministic")
	}
}

// TestRejoinServesAgain: a crashed host that rejoins comes back as a
// cold standby; only the dead window between crash and rejoin swallows
// forwards.
func TestRejoinServesAgain(t *testing.T) {
	plan := ukfault.New(19).CrashHostRejoin(1, 250*time.Millisecond, 100*time.Millisecond)
	c := newTestCluster(t, faultTestConfig(plan))
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejoins != 1 {
		t.Errorf("rejoins = %d, want 1", rep.Rejoins)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
}

// TestFloorSurvivesCrashes: crash every host but one under light load —
// the autoscaler must never drain the last healthy host, and the serve
// must still account for everything.
func TestFloorSurvivesCrashes(t *testing.T) {
	plan := ukfault.New(23).
		CrashHost(1, 50*time.Millisecond).
		CrashHost(2, 60*time.Millisecond)
	c := newTestCluster(t, Config{
		Hosts: 3, Cores: 2, InitialActive: 3, MinActive: 1,
		Activation: Activation{Handoff: true, ImageBytes: 3 << 20, Attach: 50 * time.Microsecond},
		DrainAfter: 2,
		Faults:     plan,
	})
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", rep.Crashes)
	}
	if rep.ActiveEnd < 1 {
		t.Errorf("active end = %d — the floor drained the last healthy host", rep.ActiveEnd)
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
	// Host 0 is the survivor; it must have served the bulk.
	var host0 int
	for _, h := range rep.PerHost {
		if h.Host == 0 && !h.Crashed {
			host0 = h.Requests
		}
	}
	if host0 == 0 {
		t.Error("surviving host 0 served nothing")
	}
}

// TestPartitionRetries: a front-door partition makes every forward to
// the host die of reply timeout and re-route; the host serves nothing
// while cut off, yet nothing is dropped.
func TestPartitionRetries(t *testing.T) {
	plan := ukfault.New(29).PartitionHost(1, 100*time.Millisecond, 200*time.Millisecond)
	c := newTestCluster(t, Config{
		Hosts: 2, Cores: 2, InitialActive: 2, MinActive: 2,
		Policy: RoundRobin,
		Faults: plan,
	})
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried == 0 {
		t.Error("partition never forced a retry")
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
}

// TestRetryBudgetExhaustion: with a hard per-trace retry budget, losses
// beyond it fail instead of retrying — bounded, explicit, counted.
func TestRetryBudgetExhaustion(t *testing.T) {
	plan := ukfault.New(37).PartitionHost(1, 100*time.Millisecond, 400*time.Millisecond)
	cfg := Config{
		Hosts: 2, Cores: 2, InitialActive: 2, MinActive: 2,
		Policy:      RoundRobin,
		Faults:      plan,
		RetryBudget: 50,
	}
	c := newTestCluster(t, cfg)
	defer c.Close()
	rep, err := c.Serve(flashTrace(40_000))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried > 50 {
		t.Errorf("retried %d forwards, budget was 50", rep.Retried)
	}
	if rep.Failed == 0 {
		t.Error("budget exhaustion never failed a forward")
	}
	if rep.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", rep.Dropped())
	}
}

// TestClusterCloseIdempotentAndServeErrors: Close twice is safe and a
// closed cluster refuses to serve instead of panicking.
func TestClusterCloseIdempotentAndServeErrors(t *testing.T) {
	c := newTestCluster(t, Config{Hosts: 2})
	c.Close()
	c.Close()
	if _, err := c.Serve(flashTrace(1_000)); err == nil {
		t.Error("Serve on closed cluster returned nil error")
	}
}

// TestPlanValidation: an out-of-range crash host must be rejected at
// construction, not discovered mid-serve.
func TestPlanValidation(t *testing.T) {
	cfg := Config{Hosts: 2, Faults: ukfault.New(1).CrashHost(5, time.Millisecond)}
	cfg.NewPool = func(host int) (*ukpool.Pool, error) {
		return ukpool.New(hostBoot(t, host), testPoolOpts()...), nil
	}
	if _, err := New(cfg); err == nil {
		t.Error("plan crashing host 5 of a 2-host cluster passed validation")
	}
}

// TestInvalidVMHazardRejected: a VM hazard outside [0, 1], NaN
// included, is refused at construction when the plan carries it and at
// serve when a host pool does — never served as a crash on every
// request.
func TestInvalidVMHazardRejected(t *testing.T) {
	for _, h := range []float64{math.NaN(), -1, 1.5} {
		t.Run(fmt.Sprint(h), func(t *testing.T) {
			cfg := Config{Hosts: 2, Faults: ukfault.New(1).WithVMHazard(h)}
			cfg.NewPool = func(host int) (*ukpool.Pool, error) {
				return ukpool.New(hostBoot(t, host), testPoolOpts()...), nil
			}
			if _, err := New(cfg); err == nil {
				t.Error("plan hazard passed validation")
			}

			c := newTestCluster(t, Config{Hosts: 2, InitialActive: 2,
				NewPool: func(host int) (*ukpool.Pool, error) {
					opts := append(testPoolOpts(), ukpool.WithCrashHazard(h, uint64(host)))
					return ukpool.New(hostBoot(t, host), opts...), nil
				}})
			defer c.Close()
			if _, err := c.Serve(flashTrace(200)); err == nil {
				t.Error("host pool hazard served without error")
			}
		})
	}
}

// TestNegativeLinkRejected: a negative RTT or bandwidth is an error
// from New. A -1ms RTT used to serve at a 0s p99 and a -1 B/s link
// silently priced serialization as free.
func TestNegativeLinkRejected(t *testing.T) {
	for _, link := range []Link{
		{BytesPerSec: 1e9, RTT: -time.Millisecond},
		{BytesPerSec: -1, RTT: 40 * time.Microsecond},
	} {
		cfg := Config{Hosts: 3, Link: link, NewPool: func(host int) (*ukpool.Pool, error) {
			return ukpool.New(hostBoot(t, host), testPoolOpts()...), nil
		}}
		if _, err := New(cfg); err == nil {
			t.Errorf("link %+v accepted", link)
		}
	}
}
