package main

// metricSpec names one reported metric. kind is "host" for figures
// measured on the wall clock or the Go runtime and "model" for
// simulated-time figures, which are deterministic per seed.
type metricSpec struct {
	name, unit, better, kind string
}

// endToEnd is what an untraced run reports, in print order.
var endToEnd = []metricSpec{
	{"host_alloc_bytes_per_req", "B/req", "lower", "host"},
	{"host_allocs_per_req", "objects/req", "lower", "host"},
	{"setup_s", "s", "lower", "host"},
	{"model_req_per_s", "req/s", "higher", "model"},
	{"model_p50_us", "us", "lower", "model"},
	{"model_p99_us", "us", "lower", "model"},
	{"model_goodput", "ratio", "higher", "model"},
}

// perLayer is what a traced run reports, grouped by layer.
var perLayer = []metricSpec{
	{"ukboot.fork.calls", "count", "lower", "model"},
	{"ukboot.fork.host_s", "s", "lower", "host"},
	{"ukboot.fork.host_us_p50", "us", "lower", "host"},
	{"ukboot.fork.host_us_p99", "us", "lower", "host"},
	{"ukboot.fork.model_us", "us", "lower", "model"},
	{"ukboot.boot.calls", "count", "lower", "model"},
	{"ukboot.boot.host_s", "s", "lower", "host"},
	{"ukboot.boot.model_us", "us", "lower", "model"},
	{"ukboot.snapshot.host_s", "s", "lower", "host"},
	{"ukboot.serve_share", "ratio", "lower", "host"},
	{"sim.events", "count", "lower", "model"},
	{"sim.events_per_req", "events/req", "lower", "model"},
	{"sim.host_ns_per_event", "ns/event", "lower", "host"},
	{"sim.server_cycles_per_req", "cycles/req", "lower", "model"},
	{"ukpool.warm_hit_ratio", "ratio", "higher", "model"},
	{"ukpool.queued", "count", "lower", "model"},
	{"ukpool.cold_boots", "count", "lower", "model"},
	{"ukpool.fork_boots", "count", "lower", "model"},
	{"ukpool.crashes", "count", "lower", "model"},
	{"ukpool.retried", "count", "lower", "model"},
	{"ukpool.failed", "count", "lower", "model"},
	{"ukpool.breaker_trips", "count", "lower", "model"},
	{"ukpool.peak_instances", "count", "lower", "model"},
	{"ukcluster.new.host_s", "s", "lower", "host"},
	{"ukcluster.serve.host_s", "s", "lower", "host"},
	{"ukcluster.serve.self_s", "s", "lower", "host"},
	{"ukcluster.route.model_p99_us", "us", "lower", "model"},
	{"ukcluster.activations", "count", "lower", "model"},
	{"ukcluster.handoffs", "count", "lower", "model"},
	{"ukcluster.drains", "count", "lower", "model"},
	{"ukcluster.requeued", "count", "lower", "model"},
	{"ukcluster.retried", "count", "lower", "model"},
	{"ukcluster.failed", "count", "lower", "model"},
	{"ukcluster.shed", "count", "lower", "model"},
	{"ukcluster.replacements", "count", "lower", "model"},
	{"ukcluster.probes", "count", "lower", "model"},
	{"ukbuild.build.host_s", "s", "lower", "host"},
	{"netstack.server_poll.host_ns_per_req", "ns/req", "lower", "host"},
	{"netstack.client_poll.host_ns_per_req", "ns/req", "lower", "host"},
	{"netstack.tcp_segs_per_req", "segs/req", "lower", "model"},
	{"netstack.retransmits", "count", "lower", "model"},
	{"netstack.rx_dropped", "count", "lower", "model"},
	{"netstack.rto_stalls", "count", "lower", "model"},
	{"uknetdev.kicks_per_req", "kicks/req", "lower", "model"},
	{"uknetdev.irqs_per_req", "irqs/req", "lower", "model"},
	{"uknetdev.zc_share", "ratio", "higher", "model"},
	{"uknetdev.drops", "count", "lower", "model"},
	{"httpd.poll.host_ns_per_req", "ns/req", "lower", "host"},
	{"httpd.loadgen.host_ns_per_req", "ns/req", "lower", "host"},
	{"httpd.not_found_share", "ratio", "lower", "model"},
	{"vfscore.pagecache.hit_ratio", "ratio", "higher", "model"},
	{"vfscore.pagecache.evictions", "count", "lower", "model"},
	{"vfscore.pagecache.shared_fill_share", "ratio", "higher", "model"},
	{"ukalloc.mallocs_per_req", "mallocs/req", "lower", "model"},
	{"ukalloc.failures", "count", "lower", "model"},
	{"ukalloc.peak_used_kb", "KiB", "lower", "model"},
	{"host_req_per_s", "req/s", "higher", "host"},
	{"peak_rss_mb", "MiB", "lower", "host"},
	{"go.gc_cycles", "count", "lower", "host"},
	{"go.gc_cpu_share", "ratio", "lower", "host"},
	{"trace.overhead_share", "ratio", "lower", "host"},
}
