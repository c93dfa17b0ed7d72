package ukcluster

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"unikraft/internal/ukfault"
	"unikraft/internal/ukpool"
)

// Plan kinds a fuzz input can pick; the checked-in corpus under
// testdata/fuzz holds one entry per kind.
const (
	fuzzNoPlan = iota
	fuzzCrash
	fuzzCrashRejoin
	fuzzLossyLink
	fuzzPartition
	fuzzSlowHost
	fuzzVMHazard
	fuzzPlanKinds
)

// fuzzCase is one decoded fuzz input: a cluster shape, a fault plan, the
// overload controls, and an open-loop trace.
type fuzzCase struct {
	seed                      uint64
	hosts, active, cores      int
	policy                    Policy
	plan                      int
	victim                    int
	at                        time.Duration
	admit, deadline, throttle bool
	n                         int
	rate                      float64
}

// decodeFuzzCase maps fuzz bytes onto a case. Each byte drives one
// dimension, so a mutation moves one knob at a time.
func decodeFuzzCase(data []byte) fuzzCase {
	var b [20]byte
	copy(b[:], data)
	fc := fuzzCase{
		seed:   binary.LittleEndian.Uint64(b[:8]),
		hosts:  2 + int(b[8]%5),
		cores:  1 + int(b[10]%2),
		policy: Policy(b[11] % 3),
		plan:   int(b[12] % fuzzPlanKinds),
		at:     time.Duration(b[14]%100) * 2 * time.Millisecond,
		n:      1 + int(binary.LittleEndian.Uint16(b[16:18])%5_000),
		rate:   10_000 * float64(1+b[18]%20),
	}
	fc.active = 1 + int(b[9])%fc.hosts
	fc.victim = int(b[13]) % fc.hosts
	fc.admit, fc.deadline, fc.throttle = b[15]&1 != 0, b[15]&2 != 0, b[15]&4 != 0
	return fc
}

func (fc fuzzCase) faultPlan() *ukfault.Plan {
	p := ukfault.New(fc.seed)
	switch fc.plan {
	case fuzzNoPlan:
		return nil
	case fuzzCrash:
		p.CrashHost(fc.victim, fc.at)
	case fuzzCrashRejoin:
		p.CrashHostRejoin(fc.victim, fc.at, 50*time.Millisecond)
	case fuzzLossyLink:
		p.DegradeLink(fc.victim, fc.at, fc.at+100*time.Millisecond, 100*time.Microsecond, 0.2)
	case fuzzPartition:
		p.PartitionHost(fc.victim, fc.at, fc.at+50*time.Millisecond)
	case fuzzSlowHost:
		p.Slow(fc.victim, fc.at, fc.at+100*time.Millisecond, 3)
	case fuzzVMHazard:
		p.WithVMHazard(0.01)
	}
	return p
}

// serve runs the case on a fresh cluster, wiring the plan's VM hazard
// and slow hosts into the host pools the way the SDK does.
func (fc fuzzCase) serve(t *testing.T) *Report {
	plan := fc.faultPlan()
	cfg := Config{
		Hosts: fc.hosts, Cores: fc.cores, InitialActive: fc.active,
		Policy:     fc.policy,
		EstService: 47 * time.Microsecond,
		EvalEvery:  2 * time.Millisecond,
		Faults:     plan,
		NewPool: func(host int) (*ukpool.Pool, error) {
			opts := []ukpool.Option{
				ukpool.WithWarm(1), ukpool.WithMaxInstances(4), ukpool.WithColdBurst(2),
				ukpool.WithServiceCost(4, 170_000),
			}
			if plan != nil && plan.VM.Hazard > 0 {
				opts = append(opts, ukpool.WithCrashHazard(plan.VM.Hazard, ukfault.Mix(plan.Seed, uint64(host))))
			}
			if sl, ok := plan.SlowOf(host); ok {
				opts = append(opts, ukpool.WithSlowdown(sl.From, sl.To, sl.Factor))
			}
			return ukpool.New(hostBoot(t, host), opts...), nil
		},
	}
	if fc.admit {
		cfg.AdmitTarget = 500 * time.Microsecond
	}
	if fc.deadline {
		cfg.DefaultDeadline = 5 * time.Millisecond
	}
	if fc.throttle {
		cfg.RetryThrottleRatio = 0.1
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := ukpool.NewOverload(fc.seed, fc.rate, fc.n, 256).Mix(0.5).Sessions(64)
	rep, err := c.Serve(w)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// FuzzClusterInvariants drives random fleets, policies, fault plans and
// overload controls through the one routing path every plan shares, and
// checks request conservation, per-host accounting and determinism.
func FuzzClusterInvariants(f *testing.F) {
	for kind := byte(0); kind < fuzzPlanKinds; kind++ {
		f.Add([]byte{kind + 1, 0, 0, 0, 0, 0, 0, 0,
			2, 1, 1, kind % 3, kind, 1, 5, kind % 8, 0xD0, 0x07, 5, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := decodeFuzzCase(data)
		rep := fc.serve(t)
		if rep.Offered != fc.n {
			t.Errorf("offered %d, trace had %d", rep.Offered, fc.n)
		}
		if d := rep.Dropped(); d != 0 {
			t.Errorf("%d requests unaccounted for", d)
		}
		if done := rep.Pool.Requests - rep.Pool.Failed - rep.Pool.Expired; uint64(done) != rep.Pool.Latency.Count {
			t.Errorf("pool completed %d requests, latency histogram holds %d", done, rep.Pool.Latency.Count)
		}
		rows := 0
		for _, h := range rep.PerHost {
			rows += h.Requests
		}
		if rows != rep.Pool.Requests {
			t.Errorf("per-host rows sum to %d, pool served %d", rows, rep.Pool.Requests)
		}
		if rep.Throttled > rep.Failed {
			t.Errorf("throttled %d > failed %d", rep.Throttled, rep.Failed)
		}
		if rep.ShedBatch > rep.Shed {
			t.Errorf("batch shed %d > shed %d", rep.ShedBatch, rep.Shed)
		}
		if again := fc.serve(t); !reflect.DeepEqual(rep, again) {
			t.Errorf("two runs of the same input diverged:\n%v\n----\n%v", rep, again)
		}
	})
}
