package experiments

import (
	"encoding/binary"
	"fmt"

	"unikraft/internal/apps/httpd"
	"unikraft/internal/apps/kvstore"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/uknetdev"
)

var clientIP, serverIP = netstack.IP(10, 0, 0, 1), netstack.IP(10, 0, 0, 2)

// paperConns is the paper's client concurrency: wrk and
// redis-benchmark run 30 connections (Fig 12/13).
const paperConns = 30

// world is the TCP serving topology every datapath experiment measures
// on: one load-generator stack on its own machine and N server netstack
// shards over one multi-queue device — shard i polling queue i on core
// i with its own allocator arena (nothing shared on the datapath but
// the NIC). One core is the calibrated single-queue pair.
type world struct {
	cm     *sim.Machine
	ms     []*sim.Machine
	client *netstack.Stack
	shards []*netstack.Stack
	allocs *ukalloc.Shards
}

// worldConfig selects the data-path variant a world runs on: the
// calibrated copying baseline (zero value) or the zero-copy/coalesced
// path the zerocopy experiment sweeps.
type worldConfig struct {
	zeroCopy bool
	tuning   uknetdev.Tuning
}

func newWorld(env *Env, wc worldConfig, cores int, alloc string) (*world, error) {
	w := &world{cm: env.NewMachine(), ms: make([]*sim.Machine, cores)}
	for i := range w.ms {
		w.ms[i] = env.NewMachine()
	}
	cd, sd, err := uknetdev.NewMultiQueuePair(w.cm, w.ms, uknetdev.VhostNet, wc.tuning)
	if err != nil {
		return nil, err
	}
	w.client = netstack.New(w.cm, cd, netstack.Config{Addr: clientIP, Name: "client", ZeroCopy: wc.zeroCopy})
	w.shards = make([]*netstack.Stack, cores)
	for i := range w.shards {
		w.shards[i] = netstack.New(w.ms[i], sd, netstack.Config{
			Addr: serverIP, Name: fmt.Sprintf("server%d", i), ZeroCopy: wc.zeroCopy,
			RxQueue: i, TxQueue: i,
		})
		// RSS steers ARP to queue 0 only; the other shards learn the
		// client's address from the shared neighbor table.
		if i > 0 {
			w.shards[i].SeedARP(clientIP, cd.HWAddr())
		}
	}
	sinks := make([]ukalloc.CostSink, cores)
	for i, m := range w.ms {
		sinks[i] = m
	}
	if w.allocs, err = ukalloc.NewShards(alloc, cores, 64<<20, sinks); err != nil {
		return nil, err
	}
	return w, nil
}

// ports returns conns client source ports for server port dst, spread
// evenly over the world's queues by RSS.
func (w *world) ports(dst uint16, conns int) []uint16 {
	cores := len(w.ms)
	return smpPorts(clientIP, serverIP, dst, netstack.ProtoTCP, cores, (conns+cores-1)/cores)[:conns]
}

// pump polls client, shards (running app(i) between shard i's polls)
// and client again, then collects replies, until nothing moves.
func (w *world) pump(app func(i int), collect func() int) {
	for {
		moved := w.client.Poll()
		for i, s := range w.shards {
			moved += s.Poll()
			app(i)
			moved += s.Poll()
		}
		moved += w.client.Poll()
		moved += collect()
		if moved == 0 {
			return
		}
	}
}

// measure runs fire/pump rounds until the generator completes reqs
// requests, excluding retransmission-timeout idle gaps, and returns
// requests per second of the busiest core.
func (w *world) measure(reqs int, completed func() uint64, fire func(), pump func()) float64 {
	starts := make([]uint64, len(w.ms))
	for i, m := range w.ms {
		starts[i] = m.CPU.Cycles()
	}
	startDone := completed()
	for completed()-startDone < uint64(reqs) {
		before := completed()
		fire()
		pump()
		if completed() == before {
			// Residual packet loss: advance every clock past the RTO so
			// the TCP retransmission timers fire (idle, not server work).
			const rto = 200_000_000
			w.cm.Charge(rto)
			for i, m := range w.ms {
				m.Charge(rto)
				starts[i] += rto
			}
			pump()
		}
	}
	served := float64(completed() - startDone)
	var maxCycles uint64
	for i, m := range w.ms {
		if c := m.CPU.Cycles() - starts[i]; c > maxCycles {
			maxCycles = c
		}
	}
	return float64(w.cm.CPU.Hz) / (float64(maxCycles) / served)
}

// nginxRate measures the HTTP server over cores shards with conns wrk
// connections, one outstanding request each.
func nginxRate(env *Env, wc worldConfig, cores, conns int, alloc string, reqs int) (float64, error) {
	w, err := newWorld(env, wc, cores, alloc)
	if err != nil {
		return 0, err
	}
	srvs := make([]*httpd.Server, cores)
	for i := range srvs {
		if srvs[i], err = httpd.New(w.shards[i], w.allocs.Shard(i), 80, nil); err != nil {
			return 0, err
		}
	}
	gen := httpd.NewLoadGenPorts(w.client, netstack.AddrPort{Addr: serverIP, Port: 80}, w.ports(80, conns))
	pump := func() { w.pump(func(i int) { srvs[i].Poll() }, gen.Collect) }
	pump()
	if !gen.Ready() {
		return 0, fmt.Errorf("load generator not connected")
	}
	return w.measure(reqs, func() uint64 { return gen.Completed }, func() { gen.Fire(1) }, pump), nil
}

// redisRate measures the Redis-like server's GET or SET rate over cores
// shards with conns redis-benchmark connections at pipelining 16.
func redisRate(env *Env, wc worldConfig, cores, conns int, alloc string, set bool, reqs int) (float64, error) {
	w, err := newWorld(env, wc, cores, alloc)
	if err != nil {
		return 0, err
	}
	srvs := make([]*kvstore.Server, cores)
	for i := range srvs {
		if srvs[i], err = kvstore.New(w.shards[i], w.allocs.Shard(i), 6379); err != nil {
			return 0, err
		}
	}
	addr := netstack.AddrPort{Addr: serverIP, Port: 6379}
	bench := kvstore.NewBenchPorts(w.client, addr, w.ports(6379, conns), set)
	app := func(i int) { srvs[i].Poll() }
	pump := func() { w.pump(app, bench.Collect) }
	pump()
	if !bench.Ready() {
		return 0, fmt.Errorf("redis bench not connected")
	}
	// Pre-populate keys so GETs hit. The four seed connections take
	// ephemeral ports, so RSS may leave some shards unseeded: every
	// experiment measures GETs at one core.
	if !set {
		seed := kvstore.NewBench(w.client, addr, 4, true)
		pump()
		for seed.Replies < 2000 {
			seed.Fire(16)
			w.pump(app, seed.Collect)
		}
	}
	return w.measure(reqs, func() uint64 { return bench.Replies }, func() { bench.Fire(16) }, pump), nil
}

func smpIP32(a netstack.IPv4Addr) uint32 { return binary.BigEndian.Uint32(a[:]) }

// smpPorts picks one source port per queue such that the RSS hash of
// (srcIP, dstIP, port, dstPort, proto) steers queue i's traffic to
// queue i — the benchmark-side analog of a real load generator's
// SO_REUSEPORT + connect() spraying until the flows spread. count
// ports are returned per queue, interleaved [q0 q1 ... qN q0 q1 ...],
// so slicing a prefix of length k*queues keeps the spread exactly even.
func smpPorts(srcIP, dstIP netstack.IPv4Addr, dstPort uint16, proto byte, queues, count int) []uint16 {
	perQueue := make([][]uint16, queues)
	need := queues * count
	have := 0
	for p := uint16(40000); have < need && p != 0; p++ {
		q := uknetdev.RSSQueue(smpIP32(srcIP), smpIP32(dstIP), p, dstPort, proto, queues)
		if len(perQueue[q]) < count {
			perQueue[q] = append(perQueue[q], p)
			have++
		}
	}
	out := make([]uint16, 0, need)
	for i := 0; i < count; i++ {
		for q := 0; q < queues; q++ {
			out = append(out, perQueue[q][i])
		}
	}
	return out
}
