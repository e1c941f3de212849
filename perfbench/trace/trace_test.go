package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	id := r.Start("graph.read", 1, 0)
	r.End(id)
	r.Attribute("typing.gfp", id, time.Millisecond)
	if len(r.Spans()) != 0 || len(r.SelfTimes()) != 0 {
		t.Fatal("nil recorder recorded something")
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	r := New()
	r.spans = []Span{
		{ID: 1, Name: "core.extract", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "perfect.stage1", Start: 10, End: 70},
		{ID: 3, Parent: 2, Name: "typing.gfp", Start: 20, End: 60},
		{ID: 4, Parent: 1, Name: "cluster.stage2", Start: 70, End: 90},
		{ID: 5, Name: "perfect.stage1", Start: 100, End: 110},
	}
	got := r.SelfTimes()
	want := map[string]time.Duration{"core": 20, "perfect": 30, "typing": 40, "cluster": 20}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, got[l], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
}

func TestAttributedChildFloorsParentAtZero(t *testing.T) {
	r := New()
	p := r.Start("core.apply_batch", 7, 0)
	r.End(p)
	c := r.Attribute("compile.apply", p, time.Hour)
	if r.spans[c-1].Op != 7 || !r.spans[c-1].Attributed {
		t.Fatalf("attributed child = %+v", r.spans[c-1])
	}
	if self := r.SelfTimes()["core"]; self != 0 {
		t.Fatalf("parent self = %v, want 0", self)
	}
	if got := r.Durations("compile.apply"); len(got) != 1 || got[0] != time.Hour {
		t.Fatalf("Durations = %v", got)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := New()
	id := r.Start("graph.read", 1, 0)
	r.End(id)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, map[string]any{"workload": "x"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Meta  map[string]any `json:"meta"`
		Spans []Span         `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Meta["workload"] != "x" || len(doc.Spans) != 1 || doc.Spans[0].Name != "graph.read" {
		t.Fatalf("round trip = %+v", doc)
	}
}
