package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"schemex"
	"schemex/internal/cluster"
	"schemex/internal/compile"
	"schemex/internal/core"
	"schemex/internal/graph"
	"schemex/internal/par"
	"schemex/internal/perfect"
	"schemex/internal/recast"
	"schemex/internal/typing"
	"schemex/perfbench/trace"
)

// cold-dbg8: one in-process caller repeatedly parses the DBG substitute at
// scale 8 and extracts a K=6 schema from it, the whole pipeline from text.
const (
	coldScale       = 8
	coldK           = 6
	dbgPerfectTypes = 53
)

// coldOp is the measured operation: schemex.ReadGraph + schemex.Extract.
func coldOp(text []byte) (*schemex.Result, error) {
	g, err := schemex.ReadGraph(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	return schemex.Extract(g, schemex.Options{K: coldK})
}

// coldLoop runs coldOp until d has passed and checks every schema against
// want. It returns the per-op latencies.
func coldLoop(ctx context.Context, d time.Duration, text []byte, want string) ([]time.Duration, time.Duration, error) {
	var lat []time.Duration
	start := time.Now()
	for time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		res, err := coldOp(text)
		if err != nil {
			return nil, 0, fmt.Errorf("extraction %d: %w", len(lat)+1, err)
		}
		lat = append(lat, time.Since(t0))
		if got := res.Schema(); got != want {
			return nil, 0, fmt.Errorf("gate: extraction %d gave a different schema:\n%s\nwant:\n%s", len(lat), got, want)
		}
	}
	return lat, time.Since(start), nil
}

func runCold(ctx context.Context, cfg config) (*result, error) {
	var text []byte
	var ref *schemex.Result
	setup := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		// Every set-up starts from a collected heap, as the first one does.
		runtime.GC()
		t0 := time.Now()
		t, err := dbgText(cfg.seed, coldScale)
		if err != nil {
			return nil, err
		}
		r, err := coldOp(t)
		if err != nil {
			return nil, fmt.Errorf("setup extraction: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		text, ref = t, r
	}
	if ref.PerfectTypes() != dbgPerfectTypes || ref.NumTypes() != coldK {
		return nil, fmt.Errorf("gate: DBG x%d gave %d perfect and %d final types, want %d and %d",
			coldScale, ref.PerfectTypes(), ref.NumTypes(), dbgPerfectTypes, coldK)
	}
	res := &result{metrics: map[string]float64{}}
	res.note("data: DBG x%d, %d bytes of text; K=%d; %d perfect types", coldScale, len(text), coldK, ref.PerfectTypes())
	res.note("setup runs (s): %v", setup)
	want := ref.Schema()

	if !cfg.traced {
		lat, elapsed, err := coldLoop(ctx, cfg.seconds, text, want)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		l := ms(lat)
		res.attempted = len(lat)
		res.metrics["setup_s"] = median(setup)
		res.metrics["op_ms_p50"] = median(l)
		res.metrics["op_ms_tail"], _, _ = tail(l)
		res.metrics["ops_per_s"] = float64(len(lat)) / elapsed.Seconds()
		res.metrics["peak_rss_mb"] = rss
		res.note("%s", tailNote("op_ms_tail", l))
		res.note("failed_frac = 0 of %d extractions", len(lat))
		return res, nil
	}
	return coldTraced(ctx, cfg, res, text, want)
}

// coldTraced measures half the run untraced (allocation, GC pause and the
// overhead baseline) and half with the pipeline composed layer by layer
// from the benchmark, each call inside a span.
func coldTraced(ctx context.Context, cfg config, res *result, text []byte, want string) (*result, error) {
	m0 := memNow()
	untraced, _, err := coldLoop(ctx, cfg.seconds/2, text, want)
	if err != nil {
		return nil, err
	}
	allocMB, pauseMs := m0.perOp(len(untraced))

	db, err := readText(text)
	if err != nil {
		return nil, err
	}
	ref, err := core.Extract(db, core.Options{K: coldK})
	if err != nil {
		return nil, err
	}
	rec := trace.New()
	var ops []time.Duration
	var merge []float64
	var last *compile.Snapshot
	start := time.Now()
	for op := int64(1); time.Since(start) < cfg.seconds/2; op++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, err := composed(rec, op, text)
		if err != nil {
			return nil, fmt.Errorf("traced extraction %d: %w", op, err)
		}
		if err := c.sameAs(ref); err != nil {
			return nil, fmt.Errorf("gate: traced extraction %d differs from core.Extract: %w", op, err)
		}
		ops = append(ops, c.total)
		merge = append(merge, msOf(c.stage1Time-c.qd-c.gfp))
		last = c.snap
	}
	res.attempted = len(untraced) + len(ops)
	m := res.metrics
	for _, x := range perLayer {
		m[x.Name] = 0
	}
	m["graph.read_ms"] = median(ms(rec.Durations("graph.read")))
	m["compile.compile_ms"] = median(ms(rec.Durations("compile.compile")))
	m["compile.snapshot_bytes"] = float64(snapshotBytes(last))
	m["perfect.qd_build_ms"] = median(ms(rec.Durations("perfect.qd_build")))
	m["typing.gfp_ms"] = median(ms(rec.Durations("typing.gfp")))
	m["perfect.stage1_ms"] = median(ms(rec.Durations("perfect.stage1")))
	m["perfect.merge_ms"] = median(merge)
	m["perfect.classes"] = float64(ref.PerfectTypes)
	m["cluster.stage2_ms"] = median(ms(rec.Durations("cluster.stage2")))
	m["recast.stage3_ms"] = median(ms(rec.Durations("recast.stage3")))
	m["runtime.alloc_mb_per_op"] = allocMB
	m["runtime.gc_pause_ms"] = pauseMs
	selfPerOp(m, rec, len(ops))
	overhead(res, median(ms(untraced)), median(ms(ops)))
	res.note("traced %d composed extractions, untraced %d; perfect.merge_ms = stage1 - qd_build - gfp per op", len(ops), len(untraced))
	res.spans = func(path string) error {
		return writeSpans(path, cfg, []phase{{"extract", rec}})
	}
	return res, nil
}

// composition is one layer-by-layer extraction and its stage times.
type composition struct {
	snap   *compile.Snapshot
	stage1 *perfect.Result
	prog   *typing.Program
	rc     *recast.Result
	// total is the op's time; stage1Time, qd and gfp feed perfect.merge_ms.
	total, stage1Time, qd, gfp time.Duration
}

// composed runs core's cold orchestration from the benchmark: parse,
// compile, Stage 1, Stage 2 to K, Stage 3, each in a span under one
// "core.extract" root. Q_D construction and the Q_D fixpoint happen inside
// perfect.MinimalSnap, where the benchmark cannot reach; they are re-run
// once after the op, outside its span, and charged to the Stage 1 span as
// attributed children, so perfect's self time is Stage 1 minus both.
func composed(rec *trace.Recorder, op int64, text []byte) (*composition, error) {
	workers := par.Workers(0)
	c := &composition{}
	t0 := time.Now()
	root := rec.Start("core.extract", op, 0)
	s := rec.Start("graph.read", op, root)
	db, err := graph.Read(bytes.NewReader(text))
	rec.End(s)
	if err != nil {
		return nil, err
	}
	s = rec.Start("compile.compile", op, root)
	c.snap, err = compile.CompileShardsCheck(db, 0, workers, nil)
	rec.End(s)
	if err != nil {
		return nil, err
	}
	stage1Span := rec.Start("perfect.stage1", op, root)
	t1 := time.Now()
	c.stage1, err = perfect.MinimalSnap(c.snap, perfect.Options{})
	c.stage1Time = time.Since(t1)
	rec.End(stage1Span)
	if err != nil {
		return nil, err
	}
	s = rec.Start("cluster.stage2", op, root)
	k := min(coldK, c.stage1.Program.Len())
	g := cluster.NewGreedySnap(c.stage1.Program.Clone(), c.snap, cluster.Config{})
	g.RunTo(k)
	var mapping []int
	c.prog, mapping = g.Program()
	rec.End(s)
	if err := g.Err(); err != nil {
		return nil, err
	}
	homes := make(map[graph.ObjectID][]int, len(c.stage1.Home))
	for o, h := range c.stage1.Home {
		if m := mapping[h]; m != cluster.EmptySlot {
			homes[o] = []int{m}
		} else {
			homes[o] = nil
		}
	}
	s = rec.Start("recast.stage3", op, root)
	c.rc, err = recast.RecastSnapErr(c.snap, c.prog, homes, recast.DefaultOptions())
	rec.End(s)
	rec.End(root)
	c.total = time.Since(t0)
	if err != nil {
		return nil, err
	}

	t1 = time.Now()
	qd, _, err := perfect.BuildQDSnapCheck(c.snap, typing.PictureOpts{}, workers, nil)
	c.qd = time.Since(t1)
	if err != nil {
		return nil, err
	}
	t1 = time.Now()
	if _, err := typing.EvalGFPSnapCheck(qd, c.snap, workers, nil); err != nil {
		return nil, err
	}
	c.gfp = time.Since(t1)
	rec.Attribute("perfect.qd_build", stage1Span, c.qd)
	rec.Attribute("typing.gfp", stage1Span, c.gfp)
	return c, nil
}

// sameAs is the traced run's gate: the composition must reproduce
// core.Extract exactly.
func (c *composition) sameAs(ref *core.Result) error {
	switch {
	case c.stage1.Program.Len() != ref.PerfectTypes:
		return fmt.Errorf("%d perfect types, core has %d", c.stage1.Program.Len(), ref.PerfectTypes)
	case c.prog.String() != ref.Program.String():
		return fmt.Errorf("schema differs:\n%s\ncore:\n%s", c.prog, ref.Program)
	case c.rc.Defect != ref.Defect || c.rc.Unclassified != ref.Unclassified:
		return fmt.Errorf("defect %+v/%d unclassified, core %+v/%d", c.rc.Defect, c.rc.Unclassified, ref.Defect, ref.Unclassified)
	case !reflect.DeepEqual(c.rc.Assignment.Types, ref.Assignment.Types):
		return fmt.Errorf("recast assignment differs")
	}
	return nil
}
