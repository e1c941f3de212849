package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"time"

	"schemex/internal/core"
	"schemex/perfbench/churn"
	"schemex/perfbench/trace"
)

// edit-db8: one interactive editor against the server: each op is one sync
// mutate of a churn delta followed by a K=5 extraction of the session.
const editK = 5

var editChurn = churn.Config{Slots: 16, MinLive: 4, UnlinkProb: 0.04, MaxRelinkDelay: 4}

// editor is the workload's single caller.
type editor struct {
	srv     *server
	id      string
	gen     *churn.Gen
	version uint64
	deltas  []string // every delta sent, in order
	last    extractReply
	// Per-op samples.
	op, mutate, extract, overhead []float64
	replies                       []extractReply
}

// loop runs ops until d has passed, recording spans when rec is non-nil.
func (e *editor) loop(ctx context.Context, d time.Duration, rec *trace.Recorder) error {
	e.op, e.mutate, e.extract, e.overhead, e.replies = nil, nil, nil, nil, nil
	start := time.Now()
	for n := int64(1); time.Since(start) < d; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		delta, err := e.gen.Next()
		if err != nil {
			return err
		}
		payload := delta.String()
		t0 := time.Now()
		s := rec.Start("httpapi.mutate", n, 0)
		var info sessionInfo
		err = e.srv.call("POST", "/v1/session/"+e.id+"/mutate", map[string]string{"delta": payload}, http.StatusOK, &info)
		rec.End(s)
		if err != nil {
			return fmt.Errorf("op %d: %w", len(e.deltas)+1, err)
		}
		e.deltas = append(e.deltas, payload)
		e.version++
		if info.Version != e.version {
			return fmt.Errorf("gate: mutate acknowledged version %d, want %d", info.Version, e.version)
		}
		t1 := time.Now()
		s = rec.Start("httpapi.extract", n, 0)
		r, err := e.srv.extract(e.id, editK)
		rec.End(s)
		if err != nil {
			return fmt.Errorf("op %d: %w", len(e.deltas), err)
		}
		t2 := time.Now()
		if r.Incremental == nil {
			return fmt.Errorf("op %d: extraction reply has no incremental block", len(e.deltas))
		}
		in := r.Incremental
		c := rec.Attribute("core.extract", s, durOf(in.TotalMs))
		rec.Attribute("perfect.stage1", c, durOf(in.Stage1Ms))
		rec.Attribute("cluster.stage2", c, durOf(in.Stage2Ms))
		rec.Attribute("recast.stage3", c, durOf(in.Stage3Ms))
		e.op = append(e.op, msOf(t2.Sub(t0)))
		e.mutate = append(e.mutate, msOf(t1.Sub(t0)))
		extractMs := msOf(t2.Sub(t1))
		e.extract = append(e.extract, extractMs)
		e.overhead = append(e.overhead, extractMs-in.TotalMs)
		e.replies = append(e.replies, r)
		e.last = r
	}
	return nil
}

func runEdit(ctx context.Context, cfg config) (*result, error) {
	run, err := setUpServer(ctx, cfg, func() ([]byte, error) { return db8Text(cfg.seed) },
		func(srv *server, info sessionInfo) error {
			_, err := srv.extract(info.ID, editK)
			return err
		})
	if err != nil {
		return nil, err
	}
	defer run.srv.release()
	base, err := readText(run.text)
	if err != nil {
		return nil, err
	}
	cc := editChurn
	cc.Seed = cfg.seed
	gen, err := churn.New(base, cc)
	if err != nil {
		return nil, err
	}
	e := &editor{srv: run.srv, id: run.session.ID, gen: gen}
	res := &result{metrics: map[string]float64{}}
	res.note("data: Table 1 db8 perturbed by seed, %d objects, %d links; K=%d", run.session.Objects, run.session.Links, editK)
	res.note("setup runs (s): %v", run.setup)

	if !cfg.traced {
		start := time.Now()
		if err := e.loop(ctx, cfg.seconds, nil); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		rss, err := peakRSSMB(run.srv.pid())
		if err != nil {
			return nil, err
		}
		if err := editGate(e); err != nil {
			return nil, err
		}
		if err := run.srv.stop(); err != nil {
			return nil, err
		}
		res.attempted = len(e.op)
		res.metrics["setup_s"] = median(run.setup)
		res.metrics["op_ms_p50"] = median(e.op)
		res.metrics["op_ms_tail"], _, _ = tail(e.op)
		res.metrics["ops_per_s"] = float64(len(e.op)) / elapsed.Seconds()
		res.metrics["peak_rss_mb"] = rss
		res.note("%s", tailNote("op_ms_tail", e.op))
		res.note("extract_ms_p50 = %.4f, %s", median(e.extract), tailNote("extract_ms_tail", e.extract))
		res.note("mutate_ms_p50 = %.4f, %s", median(e.mutate), tailNote("mutate_ms_tail", e.mutate))
		res.note("churn ops %v, live copies at end %d; failed_frac = 0 of %d ops", gen.Counts(), gen.Live(), len(e.op))
		return res, nil
	}

	m := res.metrics
	for _, x := range perLayer {
		m[x.Name] = 0
	}
	a, err := run.srv.metrics()
	if err != nil {
		return nil, err
	}
	if err := e.loop(ctx, cfg.seconds/2, nil); err != nil {
		return nil, err
	}
	untraced := median(e.op)
	untracedOps := len(e.op)
	b, err := run.srv.metrics()
	if err != nil {
		return nil, err
	}
	serverAlloc(m, a, b, untracedOps)
	rec := trace.New()
	if err := e.loop(ctx, cfg.seconds/2, rec); err != nil {
		return nil, err
	}
	c, err := run.srv.metrics()
	if err != nil {
		return nil, err
	}
	metricsDelta(m, b, c, len(e.op))
	if err := editGate(e); err != nil {
		return nil, err
	}
	if err := run.srv.stop(); err != nil {
		return nil, err
	}
	res.attempted = untracedOps + len(e.op)

	var stage1, stage2, stage3, classes, warm1, warm2, warm3, dirty []float64
	for _, r := range e.replies {
		in := r.Incremental
		stage1 = append(stage1, in.Stage1Ms)
		stage2 = append(stage2, in.Stage2Ms)
		stage3 = append(stage3, in.Stage3Ms)
		classes = append(classes, float64(r.PerfectTypes))
		warm1 = append(warm1, boolf(in.Stage1Warm))
		warm2 = append(warm2, boolf(in.Stage2Warm))
		warm3 = append(warm3, boolf(in.Stage3Warm))
		if in.DirtyTypes >= 0 {
			dirty = append(dirty, fraction(float64(in.DirtyTypes), float64(r.PerfectTypes)))
		}
	}
	m["perfect.stage1_ms"] = median(stage1)
	m["cluster.stage2_ms"] = median(stage2)
	m["recast.stage3_ms"] = median(stage3)
	m["perfect.classes"] = median(classes)
	m["typing.stage1_warm_frac"] = mean(warm1)
	m["cluster.stage2_warm_frac"] = mean(warm2)
	m["recast.stage3_warm_frac"] = mean(warm3)
	m["cluster.dirty_types_frac"] = mean(dirty)
	m["httpapi.extract_overhead_ms"] = median(e.overhead)
	m["httpapi.extract_ms_p50"] = median(e.extract)
	m["httpapi.mutate_ms_p50"] = median(e.mutate)
	selfPerOp(m, rec, len(e.op))
	overhead(res, untraced, median(e.op))

	// One sync editor: every server batch holds exactly one delta.
	rp, err := replay(ctx, run.text, e.deltas, 1, filepath.Join(cfg.work, "replay"), cfg.seconds/2)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := replayGate(rp, e.version, e.gen.Graph()); err != nil {
		return nil, err
	}
	replayMetrics(m, rp)
	selfPerOp(m, rp.rec, rp.deltas)
	res.note("traced %d ops after %d untraced; replayed %d of %d deltas in-process", len(e.op), untracedOps, rp.deltas, len(e.deltas))
	res.spans = func(path string) error {
		return writeSpans(path, cfg, []phase{{"http", rec}, {"replay", rp.rec}})
	}
	return res, nil
}

// editGate checks the final warm extraction against a cold core.Extract of
// the expected final graph: every field the reply carries must match.
func editGate(e *editor) error {
	ref, err := core.Extract(e.gen.Graph(), core.Options{K: editK})
	if err != nil {
		return fmt.Errorf("gate: cold extraction: %w", err)
	}
	r := e.last
	want := extractReply{
		Schema: ref.Program.String(), PerfectTypes: ref.PerfectTypes, NumTypes: ref.Program.Len(),
		Defect: ref.Defect.Total(), Excess: ref.Defect.Excess, Deficit: ref.Defect.Deficit, Unclassified: ref.Unclassified,
	}
	for i, t := range ref.Program.Types {
		want.Types = append(want.Types, typeJSON{Name: t.Name, Definition: ref.Program.TypeString(i), Weight: t.Weight, Size: len(t.Links)})
	}
	got := r
	got.Incremental = nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("gate: final warm extraction differs from a cold extraction of the replayed graph:\nwarm: %+v\ncold: %+v", got, want)
	}
	return nil
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return fraction(s, float64(len(xs)))
}
