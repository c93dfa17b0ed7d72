package unikraft

// SDK-level tests for the fault-injection layer: plans built through
// the public API, the empty-plan identity guarantee, deterministic
// failover through Runtime.NewCluster, and the per-pool hazard options.

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestFaultPlanEmptyIdentity: a cluster built with an empty fault plan
// must serve byte-identically to one built without a plan at all — at
// the SDK level, through real specs and snapshot handoff.
func TestFaultPlanEmptyIdentity(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20),
		WithSnapshotBoot())
	rt := NewRuntime()
	defer rt.Close()

	serve := func(opts ...ClusterOption) *ClusterReport {
		all := append([]ClusterOption{
			WithHosts(4), WithActiveHosts(2), WithCoresPerHost(2),
			WithHostPoolOptions(WithPoolWarm(4), WithPoolMaxInstances(64)),
		}, opts...)
		c, err := rt.NewCluster(spec, all...)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(clusterTrace(30_000))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := serve()
	empty := serve(WithFaultPlan(NewFaultPlan(99)))
	if !reflect.DeepEqual(plain, empty) {
		t.Errorf("empty fault plan diverged from fault-free serve:\n%v\n----\n%v", plain, empty)
	}
}

// TestFaultPlanFailoverDeterministic: the same plan and seed reproduce
// the same crash, detection, retries and goodput bit-for-bit through
// the public API.
func TestFaultPlanFailoverDeterministic(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20),
		WithSnapshotBoot())
	rt := NewRuntime()
	defer rt.Close()

	run := func() *ClusterReport {
		plan := NewFaultPlan(55).
			CrashHost(1, 200*time.Millisecond).
			WithVMHazard(1e-3)
		c, err := rt.NewCluster(spec,
			WithHosts(4), WithActiveHosts(2), WithCoresPerHost(2),
			WithMinActiveHosts(2),
			WithHostPoolOptions(WithPoolWarm(4), WithPoolMaxInstances(64)),
			WithFaultPlan(plan),
			WithRetryPolicy(3, 250*time.Microsecond, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rep, err := c.Serve(clusterTrace(30_000))
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
	if a.Pool.Crashes == 0 {
		t.Error("VM hazard never crashed an instance")
	}
	if a.Dropped() != 0 {
		t.Errorf("%d requests unaccounted for", a.Dropped())
	}
	if g := a.Goodput(); g < 0.95 {
		t.Errorf("goodput %.4f collapsed under a single-host crash", g)
	}
}

// TestPoolCrashOptionsSDK: the pool-level hazard and breaker ride the
// public option surface, and the accounting identity holds.
func TestPoolCrashOptionsSDK(t *testing.T) {
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20))
	rt := NewRuntime()
	pool, err := rt.NewPool(spec,
		WithPoolWarm(4), WithPoolMaxInstances(32),
		WithPoolCrashHazard(0.01, 77),
		WithPoolBreaker(3),
		WithPoolLatencySeries(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rep, err := pool.Serve(PoissonWorkload(3, 40_000, 40_000, 256))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("1% hazard over 40K requests produced no crashes")
	}
	if rep.Requests != rep.Completed()+rep.Failed {
		t.Errorf("conservation broken: %d != %d + %d", rep.Requests, rep.Completed(), rep.Failed)
	}
	if len(rep.Series) == 0 {
		t.Error("latency series not recorded")
	}
}

// TestInvalidSlowdownAndLossSDK: NaN, infinite and out-of-range slow
// factors and link losses are errors from the SDK pool and cluster
// entry points, not zero latencies or silently ignored faults.
func TestInvalidSlowdownAndLossSDK(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20))
	for _, f := range []float64{math.NaN(), math.Inf(1), 1e30, -2} {
		t.Run(fmt.Sprint("slow=", f), func(t *testing.T) {
			pool, err := rt.NewPool(spec, WithPoolWarm(2), WithPoolSlowdown(0, 0, f))
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			if _, err := pool.Serve(PoissonWorkload(1, 10_000, 50, 64)); err == nil {
				t.Error("pool Serve accepted the factor")
			}
			if _, err := rt.NewCluster(spec, WithHosts(3),
				WithFaultPlan(NewFaultPlan(1).Slow(1, 0, 0, f))); err == nil {
				t.Error("NewCluster accepted the factor")
			}
		})
	}
	for _, loss := range []float64{math.NaN(), -0.1, 1.5} {
		t.Run(fmt.Sprint("loss=", loss), func(t *testing.T) {
			if _, err := rt.NewCluster(spec, WithHosts(3),
				WithFaultPlan(NewFaultPlan(1).DegradeLink(1, 0, 0, 0, loss))); err == nil {
				t.Error("NewCluster accepted the loss")
			}
		})
	}
	for _, link := range []struct {
		bps int64
		rtt time.Duration
	}{{1e9, -time.Millisecond}, {-1, 40 * time.Microsecond}} {
		t.Run(fmt.Sprint("link=", link.bps, link.rtt), func(t *testing.T) {
			if _, err := rt.NewCluster(spec, WithHosts(3), WithClusterLink(link.bps, link.rtt)); err == nil {
				t.Error("NewCluster accepted the negative link")
			}
		})
	}
}

// TestInvalidCrashHazardSDK: a hazard outside [0, 1], NaN included, is
// an error from the SDK pool's Serve and from NewCluster's fault plan —
// never a hang, and never silently served as zero.
func TestInvalidCrashHazardSDK(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	spec := NewSpec("helloworld", WithVMM("firecracker"), WithMemory(8<<20))
	for _, h := range []float64{math.NaN(), -1, 1.5} {
		t.Run(fmt.Sprint(h), func(t *testing.T) {
			pool, err := rt.NewPool(spec, WithPoolWarm(2), WithPoolCrashHazard(h, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			if _, err := pool.Serve(PoissonWorkload(1, 10_000, 50, 64)); err == nil {
				t.Error("pool Serve accepted the hazard")
			}
			if _, err := rt.NewCluster(spec, WithHosts(2),
				WithFaultPlan(NewFaultPlan(1).WithVMHazard(h))); err == nil {
				t.Error("NewCluster accepted the hazard")
			}
		})
	}
}
