package compile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"schemex/internal/dbg"
	"schemex/internal/graph"
)

// codecDBs are the graphs the codec properties run over: the paper's DBG
// shape plus a multi-shard chain.
func codecDBs(t *testing.T) map[string]*graph.DB {
	t.Helper()
	dbgDB, _ := dbg.Generate(dbg.Options{})
	return map[string]*graph.DB{"dbg": dbgDB, "chain256": chainDB(t, 256)}
}

// TestShardCodecRoundTrip pins the shard codec property: decode(encode(sh))
// is value-identical to sh, and re-encoding the decoded shard reproduces the
// original bytes bit for bit, for every shard of every layout.
func TestShardCodecRoundTrip(t *testing.T) {
	for name, db := range codecDBs(t) {
		for _, shards := range []int{1, 4, 0} {
			s, err := CompileShardsCheck(db, shards, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for si := 0; si < s.NumShards(); si++ {
				sh := s.Shard(si)
				blob := EncodeShard(sh)
				got, err := DecodeShard(blob)
				if err != nil {
					t.Fatalf("%s shards=%d shard %d: %v", name, shards, si, err)
				}
				if !reflect.DeepEqual(got, sh) {
					t.Fatalf("%s shards=%d shard %d: decoded shard differs", name, shards, si)
				}
				if blob2 := EncodeShard(got); !reflect.DeepEqual(blob2, blob) {
					t.Fatalf("%s shards=%d shard %d: re-encode not bit-identical", name, shards, si)
				}
			}
		}
	}
}

// TestShardCodecRejectsCorruption: wrong magic, any flipped payload byte,
// truncation, and inconsistent length fields all surface as *CodecError.
func TestShardCodecRejectsCorruption(t *testing.T) {
	s, err := CompileShardsCheck(chainDB(t, 256), 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeShard(s.Shard(1))

	wantErr := func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := DecodeShard(data); err == nil {
			t.Fatal("corrupt shard decoded without error")
		} else if _, ok := err.(*CodecError); !ok {
			t.Fatalf("error type = %T, want *CodecError", err)
		}
	}
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 7, codecHeaderLen, len(blob) - 1} {
			wantErr(t, blob[:n])
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte("SXNOPE99"), blob[8:]...)
		wantErr(t, bad)
	})
	t.Run("bit-flips", func(t *testing.T) {
		// Every byte position matters: header flips fail the magic or
		// checksum, payload flips fail the checksum.
		for i := 0; i < len(blob); i += 7 {
			bad := append([]byte(nil), blob...)
			bad[i] ^= 0x40
			wantErr(t, bad)
		}
	})
	t.Run("appended-garbage", func(t *testing.T) {
		wantErr(t, append(append([]byte(nil), blob...), 0xff))
	})
}

// writeShardFiles spills every shard of s into dir and returns the paths, in
// shard order — the shape the serving layer's shard-granular spill produces.
func writeShardFiles(t *testing.T, s *Snapshot, dir string) []string {
	t.Helper()
	files := make([]string, s.NumShards())
	for si := range files {
		files[si] = filepath.Join(dir, fmt.Sprintf("shard-%d.shard", si))
		if err := os.WriteFile(files[si], s.ShardBytes(si), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestCoreCodecRoundTrip pins the full spill round trip: EncodeCore +
// per-shard files + LoadSnapshot reconstruct a snapshot bit-identical to the
// original (via the flattened view), whose shard table views alias the
// rebuilt global tables exactly like a compiled snapshot's.
func TestCoreCodecRoundTrip(t *testing.T) {
	for name, db := range codecDBs(t) {
		for _, shards := range []int{1, 4, 0} {
			s, err := CompileShardsCheck(db, shards, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			core := s.EncodeCore()
			files := writeShardFiles(t, s, t.TempDir())
			got, err := LoadSnapshot(db, core, files)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			snapEqual(t, got, s, fmt.Sprintf("%s shards=%d", name, shards))
			checkShardInvariants(t, got)
			// The core re-encodes bit-identically from the loaded snapshot.
			if !reflect.DeepEqual(got.EncodeCore(), core) {
				t.Fatalf("%s shards=%d: core re-encode not bit-identical", name, shards)
			}
		}
	}
}

// TestCoreCodecRejectsMismatch: a core blob loaded against the wrong
// database, with the wrong shard-file count, or corrupted, is refused.
func TestCoreCodecRejectsMismatch(t *testing.T) {
	db := chainDB(t, 256)
	s, err := CompileShardsCheck(db, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	core := s.EncodeCore()
	files := writeShardFiles(t, s, t.TempDir())

	if _, err := LoadSnapshot(chainDB(t, 128), core, files[:2]); err == nil {
		t.Fatal("wrong database accepted")
	}
	if _, err := LoadSnapshot(db, core, files[:2]); err == nil {
		t.Fatal("wrong shard-file count accepted")
	}
	bad := append([]byte(nil), core...)
	bad[len(bad)-3] ^= 1
	if _, err := LoadSnapshot(db, bad, files); err == nil {
		t.Fatal("corrupt core accepted")
	}
}

// TestLoadSnapshotRejectsBadShardFile: LoadSnapshot reads every shard file
// up front, so a missing, truncated or bit-flipped file fails the load with
// an error, and a well-formed file that disagrees with the core's shard
// table (here: two shard files swapped) fails it with a *CodecError.
func TestLoadSnapshotRejectsBadShardFile(t *testing.T) {
	db := chainDB(t, 256)
	s, err := CompileShardsCheck(db, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	core := s.EncodeCore()
	corrupt := map[string]func(files []string) error{
		"missing":   func(files []string) error { return os.Remove(files[2]) },
		"truncated": func(files []string) error { return os.Truncate(files[2], 10) },
		"bit-flip": func(files []string) error {
			data, err := os.ReadFile(files[2])
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x10
			return os.WriteFile(files[2], data, 0o644)
		},
	}
	for name, mangle := range corrupt {
		files := writeShardFiles(t, s, t.TempDir())
		if err := mangle(files); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadSnapshot(db, core, files); err == nil || got != nil {
			t.Fatalf("%s: LoadSnapshot = (%v, %v), want an error", name, got, err)
		}
	}
	files := writeShardFiles(t, s, t.TempDir())
	files[1], files[2] = files[2], files[1]
	var ce *CodecError
	if _, err := LoadSnapshot(db, core, files); !errors.As(err, &ce) {
		t.Fatalf("swapped shard files: err = %v, want *CodecError", err)
	}
}

// loadedChain compiles a 256-node chain into 4 shards, spills it and returns
// the snapshot loaded back from the spill files.
func loadedChain(t *testing.T) *Snapshot {
	t.Helper()
	s, err := CompileShardsCheck(chainDB(t, 256), 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(s.DB(), s.EncodeCore(), writeShardFiles(t, s, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestBudgetedApplyLineage: a snapshot loaded from spill files is an
// ordinary resident snapshot — a delta stream of incremental hops over it
// stays bit-identical to scratch compiles, and clean shards are shared with
// the parent. (The name dates from when the snapshot under test was
// memory-budgeted; the lineage check is the same.)
func TestBudgetedApplyLineage(t *testing.T) {
	cur := loadedChain(t)
	for step := 0; step < 4; step++ {
		var d graph.Delta
		d.AddLink(fmt.Sprintf("n%d", step*13), fmt.Sprintf("n%d", 255-step*17), "next")
		next, info, err := Apply(cur, &d)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Shared {
			t.Fatalf("step %d: expected shared apply", step)
		}
		if !sharedShard(next, cur, 1) {
			t.Fatalf("step %d: untouched shard 1 not shared with the parent", step)
		}
		scratch, err := CompileShardsCheck(next.DB().Clone(), 4, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		snapEqual(t, next, scratch, fmt.Sprintf("step %d", step))
		cur = next
	}
}

// TestBudgetedApplyFallbackLineage: the full-recompile fallback (new label)
// over a snapshot loaded from spill files matches a scratch compile.
func TestBudgetedApplyFallbackLineage(t *testing.T) {
	cur := loadedChain(t)
	var d graph.Delta
	d.AddLink("n0", "n100", "brand-new-label")
	next, info, err := Apply(cur, &d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shared {
		t.Fatal("new label should force the fallback")
	}
	scratch, err := CompileShardsCheck(next.DB().Clone(), 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapEqual(t, next, scratch, "fallback vs scratch")
}
