package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/synth"
)

// textOf serializes a generated graph; the program only ever sees this text.
func textOf(db *graph.DB) ([]byte, error) {
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// dbgText is the DBG substitute at the given scale, its link pairing
// re-seeded by seed. Its shape quotient fixes 53 perfect types at any seed.
func dbgText(seed int64, scale int) ([]byte, error) {
	db, _ := dbg.Generate(dbg.Options{Seed: seed, Scale: scale})
	return textOf(db)
}

// db8Text is Table 1's db8 with its §7.1 perturbation re-drawn from seed.
func db8Text(seed int64) ([]byte, error) {
	p := synth.Presets()[7]
	if p.DBNo != 8 {
		return nil, fmt.Errorf("preset 8 is missing (found db%d)", p.DBNo)
	}
	db, err := p.Spec.Generate()
	if err != nil {
		return nil, err
	}
	return textOf(synth.Perturb(db, p.DeleteN, p.AddN, seed))
}

// readText parses the text form the way the server does, so object IDs in
// the benchmark's expected graph match the server's.
func readText(text []byte) (*graph.DB, error) {
	return graph.Read(bytes.NewReader(text))
}

// memDelta samples the process's cumulative allocation and GC pause.
type memDelta struct{ alloc, pause uint64 }

func memNow() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.TotalAlloc, m.PauseTotalNs}
}

// perOp returns MB allocated and GC pause ms per op since m.
func (m memDelta) perOp(ops int) (allocMB, pauseMs float64) {
	now := memNow()
	n := float64(ops)
	return fraction(float64(now.alloc-m.alloc)/(1<<20), n), fraction(msOf(time.Duration(now.pause-m.pause)), n)
}

// snapshotBytes is the encoded size of a compiled snapshot: the core blob
// plus every shard, what a durable session spills and -mem-budget pages.
func snapshotBytes(s *compile.Snapshot) int {
	if s == nil {
		return 0
	}
	n := len(s.EncodeCore())
	for i := 0; i < s.NumShards(); i++ {
		n += len(s.ShardBytes(i))
	}
	return n
}
