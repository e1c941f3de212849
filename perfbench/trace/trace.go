// Package trace is the benchmark's span recorder: it keeps spans in memory
// while a workload runs, computes each layer's self time, and writes the
// spans out as JSON when the run ends.
//
// Spans are recorded by the benchmark around its own calls into the
// program's layers; nothing inside the program is instrumented. A span's
// layer is the part of its name before the first dot ("typing.gfp" belongs
// to layer "typing"). Besides timed spans, a recorder accepts attributed
// children: durations measured elsewhere (a stage time the server reports,
// or a sub-layer call replayed beside its parent) that are charged to a
// parent span without an interval of their own.
//
// A nil *Recorder records nothing, so untraced code paths pass nil and pay
// one pointer test per span.
package trace

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// Span is one recorded interval. Start and End are offsets from the
// recorder's creation; an attributed child has Attributed set and its
// interval is notional (it ends where its parent ends).
type Span struct {
	ID         int           `json:"id"`
	Parent     int           `json:"parent"` // 0 for a root span
	Op         int64         `json:"op"`
	Name       string        `json:"name"`
	Start      time.Duration `json:"start_ns"`
	End        time.Duration `json:"end_ns"`
	Attributed bool          `json:"attributed,omitempty"`
}

// Duration is the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Layer is the span name's prefix before the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Recorder collects spans from one goroutine.
type Recorder struct {
	t0    time.Time
	spans []Span
}

// New returns an empty recorder whose clock starts now.
func New() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span under parent (0 for a root) and returns its id.
func (r *Recorder) Start(name string, op int64, parent int) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(r.t0)})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.t0)
}

// Attribute charges a duration measured elsewhere to parent as a child span
// named name, and returns the child's id so further children can hang off
// it.
func (r *Recorder) Attribute(name string, parent int, d time.Duration) int {
	if r == nil || parent == 0 {
		return 0
	}
	p := r.spans[parent-1]
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: p.Op, Name: name,
		Start: p.End - d, End: p.End, Attributed: true})
	return id
}

// Spans returns the recorded spans in creation order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Durations returns the durations of every span with the given name, in
// recording order.
func (r *Recorder) Durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s.Duration())
		}
	}
	return out
}

// SelfTimes sums, per layer, each span's duration minus the durations of its
// direct children (floored at zero: an attributed child measured on another
// execution can exceed its parent).
func (r *Recorder) SelfTimes() map[string]time.Duration {
	spans := r.Spans()
	childSum := make([]time.Duration, len(spans)+1)
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.Duration()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.Duration() - childSum[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Layer()] += self
	}
	return out
}

// WriteJSON writes the spans as one JSON document, with the layers sorted
// so the file is stable to diff.
func (r *Recorder) WriteJSON(w io.Writer, meta map[string]any) error {
	self := r.SelfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	selfNs := make(map[string]int64, len(self))
	for _, l := range layers {
		selfNs[l] = int64(self[l])
	}
	return json.NewEncoder(w).Encode(struct {
		Meta   map[string]any   `json:"meta"`
		SelfNs map[string]int64 `json:"self_ns"`
		Spans  []Span           `json:"spans"`
	}{meta, selfNs, r.Spans()})
}
