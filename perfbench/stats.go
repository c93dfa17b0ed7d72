package main

import (
	"sort"
	"syscall"
	"time"

	"unikraft/internal/ukpool"
)

// summary is a host-measured metric over a run's timed rounds.
type summary struct {
	q1, median, q3 float64
	n              int
}

// summarize returns the median and quartiles of xs (linear
// interpolation between closest ranks).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return summary{q1: at(0.25), median: at(0.5), q3: at(0.75), n: len(s)}
}

// exactQuantile returns the q-quantile of the values (nearest rank).
func exactQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// histQuantileUs reads the q-quantile of a pool histogram in µs.
// Histogram.Quantile returns the lower bound of the log bucket holding
// the rank (steps of up to 12%), which would read the same on most
// seeds; this interpolates linearly inside that bucket from the
// cumulative counts FractionBelow exposes, so the figure moves with the
// data instead of jumping a whole bucket at a time.
func histQuantileUs(h *ukpool.Histogram, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	v := h.Quantile(q) // bucket lower bound, clamped to [MinV, MaxV]
	if v >= h.MaxV {
		return us(h.MaxV)
	}
	lo, hi := bucketOf(v)
	n := float64(h.Count)
	below := 0.0
	if lo > 0 {
		below = h.FractionBelow(lo-1) * n
	}
	in := h.FractionBelow(lo)*n - below
	if in <= 0 {
		return us(v)
	}
	f := (q*(n-1) - below + 0.5) / in
	f = min(max(f, 0), 1)
	x := lo + time.Duration(f*float64(hi-lo))
	return us(min(max(x, v), h.MaxV))
}

// bucketOf returns the bounds [lo, hi) of the pool histogram's bucket
// holding v. It asks ukpool instead of restating its bucket layout: a
// histogram holding only 0 and d answers Quantile(1) with the lower
// bound of d's bucket.
func bucketOf(v time.Duration) (lo, hi time.Duration) {
	low := func(d time.Duration) time.Duration {
		var p ukpool.Histogram
		p.Record(0)
		p.Record(d)
		return p.Quantile(1)
	}
	lo = low(v)
	l := v
	hi = v + 1
	for low(hi) == lo {
		l, hi = hi, 2*hi
	}
	for hi-l > 1 { // low(l) == lo, low(hi) > lo
		m := l + (hi-l)/2
		if low(m) == lo {
			l = m
		} else {
			hi = m
		}
	}
	return lo, hi
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
