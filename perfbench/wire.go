package main

import (
	"fmt"
	"hash/fnv"

	"unikraft/internal/apps/httpd"
	"unikraft/internal/core"
	"unikraft/internal/netstack"
	"unikraft/internal/sim"
	"unikraft/internal/ukalloc"
	"unikraft/internal/ukboot"
	"unikraft/internal/ukbuild"
	"unikraft/internal/uknetdev"
	"unikraft/internal/ukplat"
	"unikraft/internal/vfscore"
)

const (
	// wireConns keep-alive connections, each with one request
	// outstanding: a closed loop, like wrk -c30 without pipelining.
	wireConns = 30
	// wireCopies seed-shuffled copies of the mix make one round's
	// request list; each connection walks the whole list once per
	// round, so every round offers the same requests.
	wireCopies = 8
	// wireStallCycles advances both clocks past the TCP retransmission
	// timeout when a pump pass makes no progress, as the fileserve
	// experiment does; the stalled cycles are left out of the rate.
	wireStallCycles = 200_000_000
	// wireMaxStalls bounds stalls per wave; beyond it the round fails.
	wireMaxStalls = 8
)

var wireAddr = netstack.AddrPort{Addr: netstack.IP(10, 0, 0, 2), Port: 80}

// wireBench is the wire-files workload: an httpd file server on a
// booted nginx VM (vfscore+ramfs root, 512-page cache, sendfile,
// zero-copy sockets, TX kick batch 8, tlsf heap), driven through a
// vhost-net virtio pair by a client netstack and httpd's load
// generator.
type wireBench struct {
	files map[string][]byte
	list  []string // one round's request list

	vm             *ukboot.VM
	cm             *sim.Machine
	cdev, sdev     *uknetdev.VirtioNet
	client, server *netstack.Stack
	srv            *httpd.Server
	gen            *httpd.LoadGen
	rounds         int // rounds served since set-up, warm-up included
	warm           vfscore.PageCacheStats

	// The round in progress: the fired wave's start on the server
	// clock, the latencies recorded so far (reused so the harness
	// allocates nothing per request), RTO stalls, and the counters
	// around the round.
	waveStart     uint64
	lats          []float64
	stalls        int
	stallCycles   uint64
	before, after wireCounters
}

func newWireBench(seed uint64) *wireBench {
	files, mix := wireSite(seed)
	rnd := sim.NewRand(seed)
	var list []string
	for c := 0; c < wireCopies; c++ {
		cp := append([]string(nil), mix...)
		for i := len(cp) - 1; i > 0; i-- {
			j := int(rnd.Uint64() % uint64(i+1))
			cp[i], cp[j] = cp[j], cp[i]
		}
		list = append(list, cp...)
	}
	return &wireBench{files: files, list: list}
}

// wireSite is the fileserve experiment's static site: a 612 B index,
// 24 pages of 4 KiB, 16 KiB images and 64 KiB blobs, with a mix
// weighted toward small files plus one missing path for the 404 path.
// File contents derive from the seed.
func wireSite(seed uint64) (map[string][]byte, []string) {
	files := map[string][]byte{"/index.html": httpd.DefaultPage}
	rnd := sim.NewRand(seed ^ 0x5173)
	content := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rnd.Uint64()%26)
		}
		return b
	}
	var mix []string
	for i := 0; i < 12; i++ {
		mix = append(mix, "/index.html")
	}
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("/page%02d.html", i)
		files[p] = content(4096)
		mix = append(mix, p)
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/img%02d.dat", i)
		files[p] = content(16384)
		if i < 4 {
			mix = append(mix, p)
		}
	}
	for i := 0; i < 4; i++ {
		files[fmt.Sprintf("/pkg%02d.bin", i)] = content(65536)
	}
	mix = append(mix, "/pkg00.bin", "/missing.html")
	return files, mix
}

// wireExpect returns the body bytes and 404s that conns connections
// must read when each issues waves requests, connection i walking list
// round-robin from offset start+i (LoadGen's per-connection offsets).
func wireExpect(files map[string][]byte, list []string, conns, start, waves int) (bytes, notFound uint64) {
	for i := 0; i < conns; i++ {
		for k := 0; k < waves; k++ {
			body, ok := files[list[(start+i+k)%len(list)]]
			if !ok {
				notFound++
				continue
			}
			bytes += uint64(len(body))
		}
	}
	return bytes, notFound
}

// setup builds the image, boots the server VM with the site as its
// root filesystem, wires the virtio pair and both stacks, starts httpd
// and completes the client handshakes.
func (b *wireBench) setup(tr *tracer, parent int) error {
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
	ctx, err := ukboot.NewContext(ukboot.Config{
		Platform:       ukplat.KVMFirecracker,
		MemBytes:       8 << 20,
		ImageBytes:     img.Bytes,
		Allocator:      alloc,
		NICs:           profile.NICs,
		Libs:           ukboot.ProfileLibs(profile.NICs, profile.Scheduler),
		RootFS:         ukboot.RootRamfs,
		Files:          b.files,
		PageCachePages: 512,
	})
	if err != nil {
		return fmt.Errorf("ukboot.NewContext: %w", err)
	}
	sp = tr.begin("ukboot.boot", parent, -1)
	vm, err := ctx.Boot(sim.NewMachine())
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("ukboot.Boot: %w", err)
	}
	b.vm = vm

	sp = tr.begin("world.new", parent, -1)
	defer tr.end(sp)
	b.cm = sim.NewMachine()
	b.cdev, b.sdev, err = uknetdev.NewTunedPair(b.cm, vm.Machine, uknetdev.VhostNet, uknetdev.Tuning{TxKickBatch: 8})
	if err != nil {
		return fmt.Errorf("uknetdev.NewTunedPair: %w", err)
	}
	b.client = netstack.New(b.cm, b.cdev, netstack.Config{Addr: netstack.IP(10, 0, 0, 1), Name: "client", ZeroCopy: true})
	b.server = netstack.New(vm.Machine, b.sdev, netstack.Config{Addr: wireAddr.Addr, Name: "server", ZeroCopy: true})
	b.srv, err = httpd.NewFileServer(b.server, vm.Heap, wireAddr.Port, &httpd.VFSFiles{VFS: vm.VFS}, true)
	if err != nil {
		return fmt.Errorf("httpd.NewFileServer: %w", err)
	}
	b.gen = httpd.NewLoadGen(b.client, wireAddr, wireConns)
	b.gen.SetPaths(b.list)
	for i := 0; i < 64 && !b.gen.Ready(); i++ {
		if b.pump(nil, noSpan) == 0 {
			break
		}
	}
	if !b.gen.Ready() {
		return fmt.Errorf("load generator: %d connections not established", wireConns)
	}
	b.rounds = 0
	return nil
}

// pump makes one pass over the datapath (as the fileserve experiment
// does) and returns how much moved. Each response collected records its
// modelled latency: server-core time since its wave was fired.
func (b *wireBench) pump(tr *tracer, parent int) int {
	sp := tr.begin("netstack.poll.client", parent, -1)
	moved := b.client.Poll()
	tr.end(sp)
	sp = tr.begin("netstack.poll.server", parent, -1)
	moved += b.server.Poll()
	tr.end(sp)
	sp = tr.begin("httpd.poll", parent, -1)
	b.srv.Poll()
	tr.end(sp)
	sp = tr.begin("netstack.poll.server", parent, -1)
	moved += b.server.Poll()
	tr.end(sp)
	sp = tr.begin("netstack.poll.client", parent, -1)
	moved += b.client.Poll()
	tr.end(sp)
	sp = tr.begin("httpd.loadgen.collect", parent, -1)
	n := b.gen.Collect()
	tr.end(sp)
	if n > 0 {
		cpu := b.vm.Machine.CPU
		lat := us(cpu.Duration(cpu.Cycles() - b.waveStart))
		for i := 0; i < n; i++ {
			b.lats = append(b.lats, lat)
		}
	}
	return moved + n
}

// wireCounters is a snapshot of every counter a round reads.
type wireCounters struct {
	completed, bytesRead, notFound uint64
	srvRequests, srvErrors         uint64
	server, client                 netstack.Stats
	sdev, cdev                     uknetdev.Stats
	cache                          vfscore.PageCacheStats
	heap                           ukalloc.Stats
	serverCycles                   uint64
}

func (b *wireBench) counters() wireCounters {
	return wireCounters{
		completed: b.gen.Completed, bytesRead: b.gen.BytesRead, notFound: b.gen.NotFound,
		srvRequests: b.srv.Requests, srvErrors: b.srv.Errors,
		server: b.server.Stats(), client: b.client.Stats(),
		sdev: b.sdev.Stats(), cdev: b.cdev.Stats(),
		cache: b.vm.VFS.CacheStats(), heap: b.vm.Heap.Stats(),
		serverCycles: b.vm.Machine.CPU.Cycles(),
	}
}

// round runs len(list) waves: every connection fires one request, the
// datapath is pumped until all of them are answered.
func (b *wireBench) round(tr *tracer, parent int) error {
	b.before = b.counters()
	sm := b.vm.Machine
	waves := len(b.list)
	b.lats, b.stalls, b.stallCycles = b.lats[:0], 0, 0
	for w := 0; w < waves; w++ {
		fired := b.gen.Completed
		b.waveStart = sm.CPU.Cycles()
		sp := tr.begin("httpd.loadgen.fire", parent, -1)
		b.gen.Fire(1)
		tr.end(sp)
		waveStalls := 0
		for b.gen.Completed-fired < wireConns {
			if b.pump(tr, parent) > 0 {
				continue
			}
			if waveStalls++; waveStalls > wireMaxStalls {
				return fmt.Errorf("wave %d: %d of %d responses after %d RTO stalls",
					w, b.gen.Completed-fired, wireConns, wireMaxStalls)
			}
			b.cm.Charge(wireStallCycles)
			sm.Charge(wireStallCycles)
			b.stallCycles += wireStallCycles
		}
		b.stalls += waveStalls
	}
	// The round ends quiescent: charge the kicks still owed for frames
	// below a full batch, so every round starts with no remainder.
	b.cdev.FlushTx()
	b.sdev.FlushTx()
	b.after = b.counters()
	b.rounds++
	return nil
}

func (b *wireBench) result() *roundResult {
	waves := len(b.list)
	start := (b.rounds - 1) * waves
	wantBytes, wantNotFound := wireExpect(b.files, b.list, wireConns, start, waves)
	res := wireResult(b.before, b.after, uint64(waves*wireConns), wantBytes, wantNotFound,
		b.lats, b.stallCycles, b.stalls, b.vm.Machine.CPU.Hz, b.warm)
	res.layer["ukboot.boot.model_us"] = us(b.vm.Report.Total())
	return res
}

// warmedUp records the page-cache state the warm-up round left: the
// fills happen there.
func (b *wireBench) warmedUp() { b.warm = b.vm.VFS.CacheStats() }

func (b *wireBench) reset() error { return nil }

func (b *wireBench) close() {
	if b.vm != nil {
		b.vm.Close()
		b.vm = nil
	}
}

// wireResult derives a round's result from the counter deltas.
func wireResult(before, after wireCounters, fired, wantBytes, wantNotFound uint64,
	lats []float64, stallCycles uint64, stalls int, hz uint64, warm vfscore.PageCacheStats) *roundResult {
	completed := after.completed - before.completed
	notFound := after.notFound - before.notFound
	bytesRead := after.bytesRead - before.bytesRead
	serverCycles := after.serverCycles - before.serverCycles - stallCycles
	var bad []string
	if completed != fired {
		bad = append(bad, fmt.Sprintf("%d of %d fired requests completed", completed, fired))
	}
	if bytesRead != wantBytes {
		bad = append(bad, fmt.Sprintf("read %d body bytes, the mix implies %d", bytesRead, wantBytes))
	}
	if notFound != wantNotFound {
		bad = append(bad, fmt.Sprintf("%d 404s, the mix implies %d", notFound, wantNotFound))
	}
	if got := after.srvRequests - before.srvRequests; got != fired {
		bad = append(bad, fmt.Sprintf("httpd served %d of %d requests", got, fired))
	}
	if after.srvErrors != 0 {
		bad = append(bad, fmt.Sprintf("httpd reported %d errors", after.srvErrors))
	}
	if after.heap.Failures != 0 {
		bad = append(bad, fmt.Sprintf("ukalloc: %d allocation failures", after.heap.Failures))
	}
	req := float64(fired)
	cache := vfscore.PageCacheStats{
		Hits: after.cache.Hits - before.cache.Hits, Misses: after.cache.Misses - before.cache.Misses,
		Evictions: after.cache.Evictions - before.cache.Evictions,
	}
	sharedFill := 0.0
	if warm.Misses > 0 {
		sharedFill = float64(warm.SharedFills) / float64(warm.Misses)
	}
	zcShare := 0.0
	if tx := after.sdev.TxPackets - before.sdev.TxPackets; tx > 0 {
		zcShare = float64(after.sdev.ZCPackets-before.sdev.ZCPackets) / float64(tx)
	}
	res := &roundResult{
		offered:   int(fired),
		completed: int(completed),
		checks:    bad,
		samples:   map[string]uint64{"model_p50_us": uint64(len(lats)), "model_p99_us": uint64(len(lats))},
		model: map[string]float64{
			"model_req_per_s": 0,
			"model_p50_us":    exactQuantile(lats, 0.50),
			"model_p99_us":    exactQuantile(lats, 0.99),
			"model_goodput":   float64(completed) / req,
		},
		layer: map[string]float64{
			"sim.server_cycles_per_req":           float64(serverCycles) / req,
			"netstack.tcp_segs_per_req":           float64(after.server.TCPSegsIn+after.server.TCPSegsOut-before.server.TCPSegsIn-before.server.TCPSegsOut) / req,
			"netstack.retransmits":                float64(after.server.TCPRetransmits + after.client.TCPRetransmits - before.server.TCPRetransmits - before.client.TCPRetransmits),
			"netstack.rx_dropped":                 float64(after.server.RxDropped + after.client.RxDropped - before.server.RxDropped - before.client.RxDropped),
			"netstack.rto_stalls":                 float64(stalls),
			"uknetdev.kicks_per_req":              float64(after.sdev.Kicks-before.sdev.Kicks) / req,
			"uknetdev.irqs_per_req":               float64(after.sdev.IRQs-before.sdev.IRQs) / req,
			"uknetdev.zc_share":                   zcShare,
			"uknetdev.drops":                      float64(after.sdev.TxDrops + after.sdev.RxDrops + after.cdev.TxDrops + after.cdev.RxDrops - before.sdev.TxDrops - before.sdev.RxDrops - before.cdev.TxDrops - before.cdev.RxDrops),
			"httpd.not_found_share":               float64(notFound) / req,
			"vfscore.pagecache.hit_ratio":         cache.HitRatio(),
			"vfscore.pagecache.evictions":         float64(cache.Evictions),
			"vfscore.pagecache.shared_fill_share": sharedFill,
			"ukalloc.mallocs_per_req":             float64(after.heap.Mallocs-before.heap.Mallocs) / req,
			"ukalloc.failures":                    float64(after.heap.Failures),
			"ukalloc.peak_used_kb":                float64(after.heap.PeakUsed) / 1024,
		},
	}
	if serverCycles > 0 {
		res.model["model_req_per_s"] = float64(hz) / (float64(serverCycles) / req)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%v", completed, bytesRead, notFound, serverCycles, lats)
	for _, k := range sortedKeys(res.layer) {
		fmt.Fprintf(h, "|%s=%v", k, res.layer[k])
	}
	res.digest = h.Sum64()
	return res
}
