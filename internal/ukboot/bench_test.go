package ukboot

import (
	"testing"

	_ "unikraft/internal/allocators/tlsf"
	"unikraft/internal/sim"
)

// BenchmarkBoot measures the full cold-boot pipeline through a reusable
// Context — the pool's cold-start path before snapshot forking.
// ReportAllocs guards the precomputed-step design: a boot should cost a
// handful of allocations (VM, page table, heap arena), not per-step
// closures or map lookups.
func BenchmarkBoot(b *testing.B) {
	ctx, err := NewContext(nginxCfg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var virtUS float64
	for i := 0; i < b.N; i++ {
		vm, err := ctx.Boot(sim.NewMachine())
		if err != nil {
			b.Fatal(err)
		}
		virtUS = float64(vm.Report.Total().Microseconds())
		vm.Close()
	}
	b.ReportMetric(virtUS, "virt-boot-us")
}

// BenchmarkForkBoot measures snapshot-fork instantiation: one template
// snapshot amortized over the run, one COW fork per iteration. The
// simulated cost (virt-boot-us) must sit far below BenchmarkBoot's,
// and allocs/op below the full pipeline's. B/op is a small fraction of
// the heap: each clone still owns a private arena, but Close hands it
// back to the Context and the next Fork re-initializes it in place.
func BenchmarkForkBoot(b *testing.B) {
	ctx, err := NewContext(nginxCfg())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := ctx.Snapshot(sim.NewMachine())
	if err != nil {
		b.Fatal(err)
	}
	defer snap.Close()
	// One fork/close off the clock leaves an arena on the free list, so
	// B/op is the steady state whatever b.N is.
	warm, err := ctx.Fork(sim.NewMachine(), snap)
	if err != nil {
		b.Fatal(err)
	}
	warm.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var virtUS float64
	for i := 0; i < b.N; i++ {
		vm, err := ctx.Fork(sim.NewMachine(), snap)
		if err != nil {
			b.Fatal(err)
		}
		virtUS = float64(vm.Report.Total().Microseconds())
		vm.Close()
	}
	b.ReportMetric(virtUS, "virt-boot-us")
}
