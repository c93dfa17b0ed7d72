package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span and the id a nil tracer hands out.
const noSpan = -1

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Times are nanoseconds since the tracer's epoch.
type span struct {
	name       string
	parent     int
	host       int // simulated host id, -1 when the call is not per host
	start, end int64
}

// tracer keeps spans in memory for the whole run; they are written out
// once the run ends. A nil *tracer records nothing, so untraced rounds
// pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id. Fork and boot hooks call it
// from the pool's worker goroutines, hence the lock.
func (t *tracer) begin(name string, parent, host int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, host: host, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns every span's self time: its duration minus the
// union of its children's intervals. Children are unioned, not summed,
// because host loops run in parallel and their fork spans overlap. It
// fails if a span was never closed or a child leaves its parent's
// interval, since either would make the table meaningless.
func selfTimes(spans []span) ([]int64, error) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			return nil, fmt.Errorf("span %d (%s) never closed", i, s.name)
		}
		if s.parent == noSpan {
			continue
		}
		if s.parent < 0 || s.parent >= len(spans) {
			return nil, fmt.Errorf("span %d (%s): parent %d out of range", i, s.name, s.parent)
		}
		p := spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return nil, fmt.Errorf("span %d (%s) [%d,%d] exceeds parent %s [%d,%d]",
				i, s.name, s.start, s.end, p.name, p.start, p.end)
		}
		children[s.parent] = append(children[s.parent], i)
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			c := spans[k]
			if c.start > curEnd {
				if curEnd >= curStart {
					covered += curEnd - curStart
				}
				curStart, curEnd = c.start, c.end
			} else if c.end > curEnd {
				curEnd = c.end
			}
		}
		if curEnd >= curStart {
			covered += curEnd - curStart
		}
		self[i] = s.end - s.start - covered
	}
	return self, nil
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	name        string
	calls       int
	total, self int64 // ns
}

// aggregate sums duration and self time per span name, sorted by
// descending self time.
func aggregate(spans []span, self []int64) []layerTime {
	by := map[string]*layerTime{}
	for i, s := range spans {
		lt := by[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			by[s.name] = lt
		}
		lt.calls++
		lt.total += s.end - s.start
		lt.self += self[i]
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes spans as Chrome trace-event JSON. Per-host spans
// get their own track (tid = host+1) so parallel host loops render side
// by side; everything else sits on track 0.
func writeChrome(w io.Writer, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.host + 1,
			Args: map[string]int{"id": i, "parent": s.parent, "host": s.host},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ns"})
}
