package main

import (
	"strings"
	"testing"
	"time"

	"unikraft/internal/ukalloc"
	"unikraft/internal/ukcluster"
	"unikraft/internal/ukpool"
	"unikraft/internal/vfscore"
)

// goodClusterReport is a consistent report: 100 offered, 90 reached
// the pools (2 of them failed there, 1 expired), 5 shed, 4 failed at
// the door, 1 expired at the door.
func goodClusterReport() *ukcluster.Report {
	rep := &ukcluster.Report{Offered: 100, Shed: 5, Failed: 4, Expired: 1}
	rep.Pool.Requests, rep.Pool.Failed, rep.Pool.Expired = 90, 2, 1
	for i := 0; i < 87; i++ {
		rep.Pool.Latency.Record(time.Duration(20+i) * time.Microsecond)
	}
	rep.PerHost = []ukcluster.HostReport{{Host: 0, Requests: 50}, {Host: 1, Requests: 40}}
	return rep
}

func TestCheckClusterAcceptsConsistentReport(t *testing.T) {
	if bad := checkCluster(goodClusterReport(), 100); len(bad) != 0 {
		t.Fatalf("consistent report flagged: %v", bad)
	}
}

// Every accounting check must fail on a report broken the way it
// guards against.
func TestCheckClusterCatchesBrokenReports(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		mutate func(r *ukcluster.Report) int // returns the offered count to check against
	}{
		{"front door skipped requests", "front door consumed", func(r *ukcluster.Report) int { return 101 }},
		{"request lost between door and pool", "Dropped()", func(r *ukcluster.Report) int {
			r.Shed--
			return 100
		}},
		{"offered miscounted", "pool requests + shed", func(r *ukcluster.Report) int {
			r.Offered++
			return 101
		}},
		{"pool completion without latency sample", "completions recorded", func(r *ukcluster.Report) int {
			r.Pool.Failed--
			r.Failed++
			return 100
		}},
		{"per-host rows disagree", "per-host requests", func(r *ukcluster.Report) int {
			r.PerHost[1].Requests--
			return 100
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := goodClusterReport()
			offered := c.mutate(rep)
			bad := checkCluster(rep, offered)
			if !strings.Contains(strings.Join(bad, "; "), c.want) {
				t.Fatalf("want a violation mentioning %q, got %v", c.want, bad)
			}
		})
	}
}

func TestWireExpectFollowsPerConnectionOffsets(t *testing.T) {
	files := map[string][]byte{"/a": make([]byte, 10), "/b": make([]byte, 100)}
	list := []string{"/a", "/b", "/missing"}
	// Connection 0 from offset 1: /b /missing; connection 1 from 2:
	// /missing /a.
	bytes, nf := wireExpect(files, list, 2, 1, 2)
	if bytes != 110 || nf != 2 {
		t.Fatalf("got %d bytes %d 404s, want 110 and 2", bytes, nf)
	}
	// A whole lap per connection reads every entry once, from any start.
	for start := 0; start < 3; start++ {
		if b, n := wireExpect(files, list, 4, start, 3); b != 4*110 || n != 4 {
			t.Fatalf("start %d: %d bytes %d 404s", start, b, n)
		}
	}
}

// goodWireCounters returns a consistent before/after pair for 60
// requests, 2 of them 404s, 6000 body bytes.
func goodWireCounters() (before, after wireCounters) {
	before = wireCounters{completed: 30, bytesRead: 1000, notFound: 1, srvRequests: 30, serverCycles: 1000}
	after = before
	after.completed += 60
	after.bytesRead += 6000
	after.notFound += 2
	after.srvRequests += 60
	after.serverCycles += 60 * 20_000
	after.heap = ukalloc.Stats{Mallocs: 60}
	after.cache = vfscore.PageCacheStats{Hits: 120}
	return before, after
}

func TestWireResultAcceptsConsistentRound(t *testing.T) {
	before, after := goodWireCounters()
	res := wireResult(before, after, 60, 6000, 2, []float64{1, 2, 3}, 0, 0, 3_600_000_000, vfscore.PageCacheStats{})
	if len(res.checks) != 0 {
		t.Fatalf("consistent round flagged: %v", res.checks)
	}
	if got := res.model["model_req_per_s"]; got != 180_000 {
		t.Fatalf("model_req_per_s = %v, want 3.6GHz / 20K cycles = 180000", got)
	}
}

func TestWireResultCatchesBrokenRounds(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		mutate func(after *wireCounters)
	}{
		{"short read", "body bytes", func(a *wireCounters) { a.bytesRead-- }},
		{"missing 404", "404s", func(a *wireCounters) { a.notFound-- }},
		{"request never answered", "fired requests completed", func(a *wireCounters) { a.completed-- }},
		{"httpd skipped a request", "httpd served", func(a *wireCounters) { a.srvRequests-- }},
		{"httpd error", "httpd reported", func(a *wireCounters) { a.srvErrors = 1 }},
		{"allocator failure", "allocation failures", func(a *wireCounters) { a.heap.Failures = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before, after := goodWireCounters()
			c.mutate(&after)
			res := wireResult(before, after, 60, 6000, 2, nil, 0, 0, 3_600_000_000, vfscore.PageCacheStats{})
			if !strings.Contains(strings.Join(res.checks, "; "), c.want) {
				t.Fatalf("want a violation mentioning %q, got %v", c.want, res.checks)
			}
		})
	}
}

// flakyBench is a workload whose modelled output changes from round to
// round, the way a hidden dependence on host state would show.
type flakyBench struct{ n int }

func (f *flakyBench) setup(*tracer, int) error { return nil }
func (f *flakyBench) round(*tracer, int) error { f.n++; return nil }
func (f *flakyBench) result() *roundResult {
	return &roundResult{offered: 10, completed: 10, digest: uint64(f.n % 2),
		model: map[string]float64{}, layer: map[string]float64{}}
}
func (f *flakyBench) warmedUp()    {}
func (f *flakyBench) reset() error { return nil }
func (f *flakyBench) close()       {}

func TestRunFailsRoundsWhoseDigestDiffers(t *testing.T) {
	var out strings.Builder
	res, err := runBench(&flakyBench{}, config{workload: "flaky", seconds: 0}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d, want a failed run with some rounds failing", res.Correct, res.Attempted, res.Failed)
	}
	if !strings.Contains(out.String(), "digest") {
		t.Fatalf("report does not name the digest mismatch:\n%s", out.String())
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	var h ukpool.Histogram
	var xs []float64
	for i := 0; i < 10_000; i++ {
		d := time.Duration(1000+i*7) * time.Nanosecond
		h.Record(d)
		xs = append(xs, us(d))
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := histQuantileUs(&h, q), exactQuantile(xs, q)
		if diff := (got - want) / want; diff > 0.02 || diff < -0.02 {
			t.Errorf("q%.2f: interpolated %.4f, exact %.4f", q, got, want)
		}
		if lo := us(h.Quantile(q)); got < lo {
			t.Errorf("q%.2f: %.4f below the bucket's lower bound %.4f", q, got, lo)
		}
	}
	// A spike holding the median is reported exactly.
	var s ukpool.Histogram
	for i := 0; i < 100; i++ {
		s.Record(26359 * time.Nanosecond)
	}
	s.Record(time.Millisecond)
	if got := histQuantileUs(&s, 0.5); got != 26.359 {
		t.Errorf("spike median = %v, want 26.359", got)
	}
}

func TestBucketOfMatchesHistogram(t *testing.T) {
	for _, v := range []time.Duration{0, 1, 7, 8, 9, 1000, 26359, 28672, time.Millisecond, 3 * time.Second} {
		lo, hi := bucketOf(v)
		if lo > v || v >= hi {
			t.Fatalf("bucketOf(%v) = [%v, %v), does not hold it", v, lo, hi)
		}
		// Every value of the bucket reads as its lower bound, the next
		// one does not.
		for _, d := range []time.Duration{lo, hi - 1, hi} {
			var h ukpool.Histogram
			h.Record(0)
			h.Record(d)
			if got, in := h.Quantile(1), d < hi; in != (got == lo) {
				t.Errorf("bucketOf(%v) = [%v, %v), but %v reads as %v", v, lo, hi, d, got)
			}
		}
	}
}
