package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSelfTimeUnionsOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "serve", parent: noSpan, start: 0, end: 100},
		{name: "fork", parent: 0, start: 10, end: 40}, // overlaps the next
		{name: "fork", parent: 0, start: 30, end: 50},
		{name: "fork", parent: 0, start: 70, end: 80},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Children cover [10,50] and [70,80]: 50 of 100.
	if self[0] != 50 || self[1] != 30 || self[3] != 10 {
		t.Fatalf("self = %v, want serve 50, forks 30/20/10", self)
	}
	agg := aggregate(spans, self)
	if agg[0].name != "fork" || agg[0].calls != 3 || agg[0].self != 60 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

func TestSelfTimeRejectsBrokenTraces(t *testing.T) {
	cases := map[string][]span{
		"child outlives parent": {
			{name: "round", parent: noSpan, start: 0, end: 10},
			{name: "poll", parent: 0, start: 5, end: 11},
		},
		"span never closed": {
			{name: "round", parent: noSpan, start: 0, end: -1},
		},
	}
	for name, spans := range cases {
		if _, err := selfTimes(spans); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTracerRecordsNestedSpansAndNilIsFree(t *testing.T) {
	var nilTracer *tracer
	if id := nilTracer.begin("x", noSpan, -1); id != noSpan {
		t.Fatalf("nil tracer handed out span %d", id)
	}
	nilTracer.end(noSpan)

	tr := newTracer()
	root := tr.begin("round", noSpan, -1)
	child := tr.begin("ukboot.fork", root, 3)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].parent != root || spans[1].host != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	if _, err := selfTimes(spans); err != nil {
		t.Fatal(err)
	}
}

func TestChromeExportIsTraceEventJSON(t *testing.T) {
	spans := []span{
		{name: "round", parent: noSpan, host: -1, start: 1000, end: 9000},
		{name: "ukboot.fork", parent: 0, host: 2, start: 2000, end: 3000},
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	fork := doc.TraceEvents[1]
	if fork.Ph != "X" || fork.Ts != 2 || fork.Dur != 1 || fork.Tid != 3 || fork.Args["parent"] != 0 {
		t.Fatalf("fork event = %+v", fork)
	}
	if !strings.Contains(buf.String(), `"displayTimeUnit"`) {
		t.Fatal("missing displayTimeUnit")
	}
}
