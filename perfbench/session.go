package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"schemex/internal/graph"
)

// serverRun is the measured server of a session workload: the last of the
// setupRuns fresh servers, each with its own data directory.
type serverRun struct {
	srv     *server
	dataDir string
	text    []byte
	session sessionInfo
	setup   []float64
}

// setUpServer sets up setupRuns times, one after the other: generate the
// data, start a server on a fresh data directory, create the session, and
// run first (when non-nil) against it. The last server keeps running;
// setup_s is the median of the times.
func setUpServer(ctx context.Context, cfg config, data func() ([]byte, error), first func(*server, sessionInfo) error) (*serverRun, error) {
	run := &serverRun{}
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("data-%d", i))
		t0 := time.Now()
		text, err := data()
		if err != nil {
			return nil, err
		}
		srv, err := startServer(ctx, cfg.server, dir)
		if err != nil {
			return nil, err
		}
		info, err := srv.createSession(text)
		if err == nil && first != nil {
			err = first(srv, info)
		}
		elapsed := time.Since(t0).Seconds()
		if err != nil {
			srv.kill()
			return nil, fmt.Errorf("setup: %w", err)
		}
		run.setup = append(run.setup, elapsed)
		if i < setupRuns-1 {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("setup: stopping server: %w", err)
			}
			continue
		}
		run.srv, run.dataDir, run.text, run.session = srv, dir, text, info
	}
	return run, nil
}

// metricsDelta diffs two /v1/metrics samples into per-layer metrics over
// the deltas acknowledged between them.
func metricsDelta(m map[string]float64, a, b serverMetrics, deltas int) {
	inc := b.ApplyIncremental - a.ApplyIncremental
	fb := b.ApplyFallback - a.ApplyFallback
	m["compile.apply_incremental_frac"] = fraction(inc, inc+fb)
	m["httpapi.batch_size_p50"] = b.Queue.BatchSizeP50
	// -sync always: one group fsync per drained batch.
	m["wal.fsyncs_per_delta"] = fraction(b.Queue.Batches-a.Queue.Batches, float64(deltas))
}

// serverAlloc reports MB allocated and GC pause ms per op on the server
// between two samples.
func serverAlloc(m map[string]float64, a, b serverMetrics, ops int) {
	m["runtime.alloc_mb_per_op"] = fraction((b.Memstats.TotalAlloc-a.Memstats.TotalAlloc)/(1<<20), float64(ops))
	m["runtime.gc_pause_ms"] = fraction((b.Memstats.PauseTotalNs-a.Memstats.PauseTotalNs)/1e6, float64(ops))
}

// replayMetrics fills the write-path metrics from an in-process replay.
func replayMetrics(m map[string]float64, r *replayed) {
	rec := r.rec
	m["graph.read_ms"] = median(ms(rec.Durations("graph.read")))
	m["compile.compile_ms"] = median(ms(rec.Durations("compile.compile")))
	m["compile.snapshot_bytes"] = float64(r.snapshotBytes)
	m["graph.parse_delta_us"] = median(ms(rec.Durations("graph.parse_delta"))) * 1e3
	m["core.apply_batch_ms"] = median(ms(rec.Durations("core.apply_batch")))
	m["compile.apply_ms"] = median(ms(rec.Durations("compile.apply")))
	m["graph.coalesced_ops_per_batch"] = fraction(float64(r.coalescedOps), float64(r.batches))
	m["wal.append_ms"] = median(ms(rec.Durations("wal.append")))
	m["wal.spill_ms"] = median(ms(rec.Durations("wal.spill")))
}

// replayGate checks a replay that ran to the end of the stream against the
// server: the same version and, fact for fact, the expected graph.
func replayGate(rp *replayed, version uint64, want *graph.DB) error {
	if rp.truncatedByClock {
		return nil
	}
	if rp.finalVersion != version {
		return fmt.Errorf("gate: replay reached version %d, server %d", rp.finalVersion, version)
	}
	got, err := canonical(rp.final)
	if err != nil {
		return err
	}
	exp, err := canonical(want)
	if err != nil {
		return err
	}
	if got != exp {
		return fmt.Errorf("gate: replayed graph differs from the expected graph")
	}
	return nil
}
