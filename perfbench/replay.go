package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"schemex/internal/compile"
	"schemex/internal/core"
	"schemex/internal/graph"
	"schemex/internal/httpapi"
	"schemex/internal/par"
	"schemex/internal/wal"
	"schemex/perfbench/trace"
)

// replayed is the in-process layer replay of a session workload's delta
// stream: the write path the server runs per batch — parse, coalesce and
// apply through core, one WAL group append with fsync, and a snapshot spill
// every httpapi.DefaultSpillEvery deltas — called layer by layer from the
// benchmark, each call in a span.
type replayed struct {
	rec              *trace.Recorder
	batches, deltas  int
	coalescedOps     uint64
	snapshotBytes    int
	final            *graph.DB
	finalVersion     uint64
	truncatedByClock bool
}

// replay applies the stream in batches of batchLen deltas, in order, until
// it is exhausted or the time budget is spent. dir receives the log and
// spill files.
func replay(ctx context.Context, text []byte, deltas []string, batchLen int, dir string, budget time.Duration) (*replayed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	workers := par.Workers(0)
	rec := trace.New()
	out := &replayed{rec: rec}

	s := rec.Start("graph.read", 0, 0)
	db, err := graph.Read(bytes.NewReader(text))
	rec.End(s)
	if err != nil {
		return nil, err
	}
	s = rec.Start("core.prepare", 0, 0)
	prep, err := core.PrepareContext(ctx, db, 0, 0)
	rec.End(s)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if _, err := compile.CompileShardsCheck(db, 0, workers, nil); err != nil {
		return nil, err
	}
	rec.Attribute("compile.compile", s, time.Since(t0))

	sp := &spiller{dir: dir}
	if err := sp.spill(nil, 0, prep); err != nil {
		return nil, fmt.Errorf("initial spill: %w", err)
	}
	defer sp.close()

	var batches [][]string
	for len(deltas) > 0 {
		n := min(batchLen, len(deltas))
		batches, deltas = append(batches, deltas[:n]), deltas[n:]
	}
	start := time.Now()
	for bi, batch := range batches {
		if time.Since(start) > budget {
			out.truncatedByClock = true
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op := int64(bi + 1)
		ds := make([]*graph.Delta, len(batch))
		payloads := make([][]byte, len(batch))
		for i, txt := range batch {
			s := rec.Start("graph.parse_delta", op, 0)
			d, err := graph.ParseDeltaString(txt)
			rec.End(s)
			if err != nil {
				return nil, fmt.Errorf("batch %d: %w", bi, err)
			}
			ds[i], payloads[i] = d, []byte(txt)
		}

		s := rec.Start("core.apply_batch", op, 0)
		next, _, err := prep.ApplyBatchContext(ctx, ds, 0)
		rec.End(s)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", bi, err)
		}
		// core runs the merge, coalesce and incremental compile inside
		// ApplyBatchContext; re-run them against the same immutable parent
		// and charge them to the apply span as attributed children.
		t0 := time.Now()
		merged := graph.MergeDeltas(ds...)
		apply := merged
		if co, ok := merged.Coalesce(prep.DB()); ok {
			apply = co
		}
		rec.Attribute("graph.coalesce", s, time.Since(t0))
		t0 = time.Now()
		if _, _, err := compile.ApplyCheck(prep.Snapshot(), apply, workers, nil); err != nil {
			return nil, fmt.Errorf("batch %d: compile.ApplyCheck: %w", bi, err)
		}
		rec.Attribute("compile.apply", s, time.Since(t0))

		s = rec.Start("wal.append", op, 0)
		_, err = sp.log.AppendAll(wal.KindDelta, payloads)
		rec.End(s)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", bi, err)
		}
		prep = next
		sp.since += len(batch)
		if sp.since >= httpapi.DefaultSpillEvery {
			if err := sp.spill(rec, op, prep); err != nil {
				return nil, fmt.Errorf("batch %d: spill: %w", bi, err)
			}
		}
		out.batches++
		out.deltas += len(batch)
	}
	out.coalescedOps = prep.Stats().CoalescedOps
	out.snapshotBytes = snapshotBytes(prep.Snapshot())
	out.final, out.finalVersion = prep.DB(), prep.Version()
	return out, nil
}

// spiller keeps the replay's current log generation, mirroring a durable
// session directory: snapshot graph, core blob, one file per shard, a fresh
// log seeded with a base record, and the manifest rename that commits them.
type spiller struct {
	dir   string
	log   *wal.Log
	files []string // the live generation's files, retired by the next spill
	since int
}

func (sp *spiller) spill(rec *trace.Recorder, op int64, prep *core.Prepared) error {
	root := rec.Start("wal.spill", op, 0)
	defer rec.End(root)
	v := prep.Version()

	s := rec.Start("graph.write", op, root)
	var base bytes.Buffer
	err := prep.DB().Write(&base)
	rec.End(s)
	if err != nil {
		return err
	}
	s = rec.Start("compile.encode", op, root)
	coreBlob := prep.EncodeSnapshotCore()
	shards := make([][]byte, prep.NumShards())
	for i := range shards {
		shards[i] = prep.EncodeShard(i)
	}
	rec.End(s)

	snapName, coreName, logName := fmt.Sprintf("snapshot-%d.graph", v), fmt.Sprintf("snapshot-%d.core", v), fmt.Sprintf("wal-%d.log", v)
	files := []string{snapName, coreName, logName}
	blobs := map[string][]byte{snapName: base.Bytes(), coreName: coreBlob}
	shardNames := make([]string, len(shards))
	for i, b := range shards {
		shardNames[i] = fmt.Sprintf("shard-%d-%d.shard", v, i)
		blobs[shardNames[i]] = b
		files = append(files, shardNames[i])
	}
	for _, name := range append([]string{snapName, coreName}, shardNames...) {
		b := blobs[name]
		if err := wal.WriteFileAtomic(filepath.Join(sp.dir, name), func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		}); err != nil {
			return err
		}
	}
	nl, err := wal.Create(filepath.Join(sp.dir, logName), wal.SyncPolicy{})
	if err != nil {
		return err
	}
	off, err := nl.Append(wal.KindBase, base.Bytes())
	if err == nil {
		err = nl.Sync()
	}
	if err == nil {
		err = wal.WriteManifest(sp.dir, wal.Manifest{Version: v, Snapshot: snapName, Log: logName, LogOffset: off, Core: coreName, Shards: shardNames})
	}
	if err != nil {
		nl.Close()
		return err
	}
	sp.close()
	for _, f := range sp.files {
		os.Remove(filepath.Join(sp.dir, f))
	}
	sp.log, sp.files, sp.since = nl, files, 0
	return nil
}

// close drops the current log. Its Close error is not checked: under the
// always policy every append was synced before it returned.
func (sp *spiller) close() {
	if sp.log != nil {
		sp.log.Close()
		sp.log = nil
	}
}
