package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schemex/internal/synth"
)

// spill writes p's shard-granular spill (core blob plus one file per shard)
// into dir and reloads it through PrepareSpilledContext.
func spill(t *testing.T, ctx context.Context, p *Prepared, dir string) *Prepared {
	t.Helper()
	files := make([]string, p.NumShards())
	for si := range files {
		files[si] = writeTempShard(t, dir, si, p.EncodeShard(si))
	}
	re, err := PrepareSpilledContext(ctx, p.DB(), p.EncodeSnapshotCore(), files)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestExtractSpillDeterminism: extraction from a snapshot spilled to its
// shard files and loaded back is bit-identical to the flat serial run,
// across shard counts {1, 4, auto} x Parallelism {1, 0} on every Table 1
// preset.
func TestExtractSpillDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, p := range synth.Presets() {
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Extract(db, Options{K: 5, Shards: 1, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s reference: %v", p.Spec.Name, err)
		}
		want := outcomeOf(ref)
		for _, cfg := range shardConfigs {
			prep, err := PrepareContext(ctx, db, cfg.par, cfg.shards)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExtractPreparedContext(ctx, spill(t, ctx, prep, t.TempDir()), Options{K: 5, Parallelism: cfg.par})
			if err != nil {
				t.Fatalf("%s (shards=%d, p=%d): %v", p.Spec.Name, cfg.shards, cfg.par, err)
			}
			if got := outcomeOf(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: reloaded result diverges at Shards=%d Parallelism=%d:\nref: %+v\ngot: %+v",
					p.Spec.Name, cfg.shards, cfg.par, want, got)
			}
		}
	}
}

// sameSpill asserts two prepared snapshots spill to identical bytes: the
// core blob and every shard file.
func sameSpill(t *testing.T, got, want *Prepared, label string) {
	t.Helper()
	if got.NumShards() != want.NumShards() || !bytes.Equal(got.EncodeSnapshotCore(), want.EncodeSnapshotCore()) {
		t.Fatalf("%s: snapshot cores differ", label)
	}
	for si := 0; si < want.NumShards(); si++ {
		if !bytes.Equal(got.EncodeShard(si), want.EncodeShard(si)) {
			t.Fatalf("%s: shard %d differs", label, si)
		}
	}
}

// TestApplyStreamSpillDeterminism replays the randomized cross-shard delta
// stream and, at every hop, spills the session and reloads it from its
// shard files. The reloaded snapshot must be byte-identical to the one
// spilled, the same delta applied to both must build byte-identical
// children, and extracting from the reloaded child must match a cold
// extraction of the same graph. The stream covers cross-shard links, growth
// past the last shard, link removal, label-universe fallbacks, and
// atomic/complex flips, so every apply path runs on a snapshot that came
// back from disk.
func TestApplyStreamSpillDeterminism(t *testing.T) {
	presets := synth.Presets()
	db, err := presets[6].Build() // DB7: graph-shaped, overlapping classes
	if err != nil {
		t.Fatal(err)
	}
	const hops = 10
	deltas, _ := buildShardStream(t, db, 23, hops)

	// The cold outcome of each hop's graph, the reference every layout's
	// reloaded session must reproduce.
	ctx := context.Background()
	cold := make([]shardOutcome, hops)
	cur, err := PrepareContext(ctx, db, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for h, d := range deltas {
		if cur, _, err = cur.ApplyContext(ctx, d, 1); err != nil {
			t.Fatal(err)
		}
		res, err := Extract(cur.DB(), Options{K: 5, Shards: 1, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		cold[h] = outcomeOf(res)
	}

	for _, cfg := range shardConfigs {
		cur, err := PrepareContext(ctx, db, cfg.par, cfg.shards)
		if err != nil {
			t.Fatal(err)
		}
		for h, d := range deltas {
			label := fmt.Sprintf("shards=%d p=%d hop %d", cfg.shards, cfg.par, h)
			re := spill(t, ctx, cur, t.TempDir())
			sameSpill(t, re, cur, label+" reload")
			next, _, err := cur.ApplyContext(ctx, d, cfg.par)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			reNext, _, err := re.ApplyContext(ctx, d, cfg.par)
			if err != nil {
				t.Fatalf("%s (reloaded): %v", label, err)
			}
			sameSpill(t, reNext, next, label+" apply")
			cur = next
			res, err := ExtractPreparedContext(ctx, reNext, Options{K: 5, Parallelism: cfg.par})
			if err != nil {
				t.Fatalf("%s extract: %v", label, err)
			}
			if got := outcomeOf(res); !reflect.DeepEqual(got, cold[h]) {
				t.Fatalf("%s: reloaded outcome diverges from a cold extraction:\nref: %+v\ngot: %+v", label, cold[h], got)
			}
		}
	}
}

// TestSpillRoundTripBudgetDeterminism: encode-core + per-shard spill, then
// reload through PrepareSpilledContext — the reloaded session must extract
// bit-identically to the original, and must keep accepting deltas on the
// incremental path.
func TestSpillRoundTripBudgetDeterminism(t *testing.T) {
	presets := synth.Presets()
	db, err := presets[2].Build() // DB3: deep nesting
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	orig, err := PrepareContext(ctx, db, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ExtractPreparedContext(ctx, orig, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := outcomeOf(refRes)

	re := spill(t, ctx, orig, t.TempDir())
	res, err := ExtractPreparedContext(ctx, re, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeOf(res); !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded extraction diverges:\nref: %+v\ngot: %+v", want, got)
	}

	deltas, refs := buildShardStream(t, db, 7, 1)
	next, info, err := re.ApplyContext(ctx, deltas[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Shared {
		t.Error("delta on the reloaded session fell back to a full recompile")
	}
	res, err = ExtractPreparedContext(ctx, next, Options{K: 5, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeOf(res); !reflect.DeepEqual(got, refs[0]) {
		t.Errorf("delta on the reloaded session diverges:\nref: %+v\ngot: %+v", refs[0], got)
	}
}

// writeTempShard persists one encoded shard for the spill round-trip tests.
func writeTempShard(t *testing.T, dir string, si int, blob []byte) string {
	t.Helper()
	p := filepath.Join(dir, fmt.Sprintf("s%d.shard", si))
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}
