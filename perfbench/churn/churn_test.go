package churn

import (
	"bytes"
	"testing"

	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/synth"
)

// textOf round-trips a generated graph through its text form, the way the
// benchmark hands data to the program.
func textOf(t *testing.T, db *graph.DB) *graph.DB {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := graph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bases(t *testing.T) map[string]*graph.DB {
	t.Helper()
	d, _ := dbg.Generate(dbg.Options{Scale: 1, Seed: 3})
	p := synth.Presets()[7]
	db8, err := p.Spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.DB{
		"dbg": textOf(t, d),
		"db8": textOf(t, synth.Perturb(db8, p.DeleteN, p.AddN, 3)),
	}
}

var testCfg = Config{Slots: 12, MinLive: 4, UnlinkProb: 0.1, MaxRelinkDelay: 5}

// stream renders n deltas of a stream as one string.
func stream(t *testing.T, base *graph.DB, cfg Config, n int) (string, *Gen) {
	t.Helper()
	g, err := New(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	for i := 0; i < n; i++ {
		d, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(d.String())
		sb.WriteString("--\n")
	}
	return sb.String(), g
}

func TestEveryDeltaAppliesAndBandHolds(t *testing.T) {
	for name, base := range bases(t) {
		cfg := testCfg
		cfg.Seed = 11
		g, err := New(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		replay := base
		maxObjects := 0
		for i := 0; i < 2000; i++ {
			d, err := g.Next()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// The delta must apply to an independent replica too, and the
			// replica must track the generator's expected graph.
			if replay, _, err = replay.ApplyDelta(d); err != nil {
				t.Fatalf("%s: op %d does not apply to the replica: %v", name, i, err)
			}
			if i >= 2*cfg.Slots && (g.Live() < cfg.MinLive || g.Live() > cfg.Slots) {
				t.Fatalf("%s: op %d: live %d outside [%d, %d]", name, i, g.Live(), cfg.MinLive, cfg.Slots)
			}
			if n := g.Graph().NumObjects(); n > maxObjects {
				maxObjects = n
			}
		}
		if replay.NumLinks() != g.Graph().NumLinks() || replay.NumObjects() != g.Graph().NumObjects() {
			t.Fatalf("%s: replica diverged from the expected graph", name)
		}
		// Slots are reused, so the ID space stops growing once every slot
		// has been inserted.
		if grown := maxObjects - base.NumObjects(); grown > cfg.Slots*(1+32) {
			t.Fatalf("%s: object space grew by %d", name, grown)
		}
		c := g.Counts()
		for _, k := range []string{"insert", "remove", "unlink", "relink"} {
			if c[k] == 0 {
				t.Fatalf("%s: no %s ops in %v", name, k, c)
			}
		}
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	base := bases(t)["db8"]
	cfg := testCfg
	cfg.Seed = 5
	a, _ := stream(t, base, cfg, 300)
	b, _ := stream(t, base, cfg, 300)
	if a != b {
		t.Fatal("same seed gave different streams")
	}
	cfg.Seed = 6
	c, _ := stream(t, base, cfg, 300)
	if a == c {
		t.Fatal("different seeds gave the same stream")
	}
}

func TestBaseGraphIsNotModified(t *testing.T) {
	base := bases(t)["dbg"]
	before := base.NumLinks()
	cfg := testCfg
	cfg.Seed = 1
	stream(t, base, cfg, 200)
	if base.NumLinks() != before {
		t.Fatal("generator mutated its base graph")
	}
}

func TestRejectsBadConfig(t *testing.T) {
	base := bases(t)["dbg"]
	for _, cfg := range []Config{{Slots: 4, MinLive: 4, MaxRelinkDelay: 1}, {Slots: 0, MaxRelinkDelay: 1}, {Slots: 3, MinLive: -1, MaxRelinkDelay: 1}, {Slots: 3}} {
		if _, err := New(base, cfg); err == nil {
			t.Fatalf("New(%+v) accepted a bad config", cfg)
		}
	}
}
