package experiments

import (
	"fmt"

	"unikraft/internal/core"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
	"unikraft/internal/ukplat"
	"unikraft/internal/ukpool"
)

// The serving experiments (serve, snapboot, fileserve, cluster, chaos,
// overload) share one fleet recipe: the guest's boot config, the host
// seed derivation and the heavy request's service cost live here once.

// heavyRequest is the heavy request the serving fleets replay: 4
// syscalls plus 170K application cycles, ~47us of service on the nginx
// guest. A per-spec cost profile changes it here.
var heavyRequest = ukpool.WithServiceCost(4, 170_000)

// firecrackerBoot links app for Firecracker with DCE+LTO and returns
// the boot config of one 8 MiB guest of it. Density is the point: the
// paper's Fig 11 shows nginx needs single-digit MiB, and small guests
// keep a multi-hundred-instance fleet cheap on the host too.
func firecrackerBoot(env *Env, app string) (ukboot.Config, error) {
	profile, ok := core.AppByName(app)
	if !ok {
		return ukboot.Config{}, fmt.Errorf("app %s not registered", app)
	}
	img, err := ukbuild.Build(env.Catalog, profile, ukplat.KVMFirecracker.Name, ukbuild.Options{DCE: true, LTO: true})
	if err != nil {
		return ukboot.Config{}, err
	}
	backend, err := ukalloc.ResolveBackend(profile.Allocator)
	if err != nil {
		return ukboot.Config{}, err
	}
	return ukboot.Config{
		Platform:   ukplat.KVMFirecracker,
		MemBytes:   8 << 20,
		ImageBytes: img.Bytes,
		Allocator:  backend,
		NICs:       profile.NICs,
		Libs:       ukboot.ProfileLibs(profile.NICs, profile.Scheduler),
	}, nil
}

// Host seed salts: host h's template boots on seed h*hostSalt and its
// instance id on seed h*hostSalt + id*instSalt — the derivation the
// public SDK uses too, so host fleets stay deterministic yet
// independent of one another.
const (
	hostSalt = 0xA24BAED4963EE407
	instSalt = 0x9E3779B97F4A7C15
)

// hostPools returns the cluster's per-host pool factory over cfg. Each
// host owns a boot context (its own arena); with fork it also mints a
// template snapshot, forks every instance from it and releases it when
// the pool closes. opts returns a fresh slice of each host's pool
// options.
func hostPools(cfg ukboot.Config, fork bool, opts func(host int) []ukpool.Option) func(host int) (*ukpool.Pool, error) {
	return func(host int) (*ukpool.Pool, error) {
		ctx, err := ukboot.NewContext(cfg)
		if err != nil {
			return nil, err
		}
		seed := uint64(host) * hostSalt
		machine := func(id int) *sim.Machine {
			return sim.NewMachineWithSeed(seed + uint64(id)*instSalt)
		}
		o := opts(host)
		if fork {
			snap, err := ctx.Snapshot(sim.NewMachineWithSeed(seed))
			if err != nil {
				return nil, err
			}
			o = append(o,
				ukpool.WithForkBoot(func(id int) (*ukboot.VM, error) { return ctx.Fork(machine(id), snap) }),
				ukpool.WithOnClose(snap.Close))
		}
		return ukpool.New(func(id int) (*ukboot.VM, error) { return ctx.Boot(machine(id)) }, o...), nil
	}
}
