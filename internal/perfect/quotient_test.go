package perfect

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"schemex/internal/bisim"
	"schemex/internal/compile"
	"schemex/internal/dbg"
	"schemex/internal/graph"
	"schemex/internal/synth"
	"schemex/internal/typing"
)

type namedDB struct {
	name string
	db   *graph.DB
	// naive marks inputs small enough for the reference evaluator.
	naive bool
}

// quotientInputs returns the oracle inputs: the Table 1 presets, DBG at
// x1/x4/x8 and seeds 1–3, shape-quotient instances, and raw random graphs.
func quotientInputs(t *testing.T) []namedDB {
	t.Helper()
	var out []namedDB
	for _, p := range synth.Presets() {
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedDB{fmt.Sprintf("db%d", p.DBNo), db, true})
	}
	for _, scale := range []int{1, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			if testing.Short() && scale > 1 {
				continue
			}
			db, _ := dbg.Generate(dbg.Options{Seed: seed, Scale: scale})
			out = append(out, namedDB{fmt.Sprintf("dbg-x%d-s%d", scale, seed), db, scale == 1})
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		db, _, err := randomShapeSpec(rand.New(rand.NewSource(seed))).GenerateShapes()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedDB{fmt.Sprintf("shapes-%d", seed), db, true})
		out = append(out, namedDB{fmt.Sprintf("random-%d", seed), randomGraph(rand.New(rand.NewSource(seed)), 60), true})
	}
	return out
}

// randomGraph builds a random graph with enough repeated structure for
// non-trivial bisimulation blocks: many leaves carry atoms drawn from a
// small pool of values of mixed sorts, and complex edges use three labels.
func randomGraph(rng *rand.Rand, n int) *graph.DB {
	db := graph.New()
	labels := []string{"a", "b", "c"}
	pool := []string{"x", "y", "1", "2", "true"}
	for i := 0; i < n; i++ {
		db.Intern("n" + strconv.Itoa(i))
	}
	atoms := 0
	for i := 0; i < n; i++ {
		from := db.Lookup("n" + strconv.Itoa(i))
		if i < n/2 {
			for k := rng.Intn(3); k > 0; k-- {
				to := db.Lookup("n" + strconv.Itoa(rng.Intn(n)))
				if err := db.AddLink(from, to, labels[rng.Intn(len(labels))]); err != nil {
					panic(err)
				}
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			text := pool[rng.Intn(len(pool))]
			a := db.Intern("v" + strconv.Itoa(atoms))
			atoms++
			if err := db.SetAtomic(a, graph.Value{Sort: graph.InferSort(text), Text: text}); err != nil {
				panic(err)
			}
			if err := db.AddLink(from, a, []string{"p", "q"}[rng.Intn(2)]); err != nil {
				panic(err)
			}
		}
	}
	return db
}

// valueLabel picks the atomic label with the fewest distinct values (more
// than one), so value typing splits some classes without splitting all.
func valueLabel(db *graph.DB) string {
	vals := map[string]map[string]bool{}
	db.Links(func(e graph.Edge) {
		if v, ok := db.AtomicValue(e.To); ok {
			if vals[e.Label] == nil {
				vals[e.Label] = map[string]bool{}
			}
			vals[e.Label][v.Text] = true
		}
	})
	best, bestN := "", 0
	for l, vs := range vals {
		if n := len(vs); n > 1 && (bestN == 0 || n < bestN || n == bestN && l < best) {
			best, bestN = l, n
		}
	}
	return best
}

func pictureCases(db *graph.DB) []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"sorts", Options{UseSorts: true}},
		{"values", Options{ValueLabels: []string{valueLabel(db)}}},
	}
}

func sameRows(t *testing.T, what string, got, want *typing.Extent) {
	t.Helper()
	if len(got.Member) != len(want.Member) {
		t.Fatalf("%s: %d rows, want %d", what, len(got.Member), len(want.Member))
	}
	for i := range want.Member {
		if !got.Member[i].Equal(want.Member[i]) {
			t.Fatalf("%s: row %d differs: %v, want %v", what, i, got.Objects(i), want.Objects(i))
		}
	}
}

// TestQuotientGFPMatchesOracles: the quotient-evaluated Q_D rows equal the
// full support-counting evaluation's and the naive evaluator's, row for
// row, at every picture precision, worker count and shard layout.
func TestQuotientGFPMatchesOracles(t *testing.T) {
	for _, in := range quotientInputs(t) {
		for _, pc := range pictureCases(in.db) {
			po := pc.opts.pictureOpts()
			snap, err := compile.CompileShardsCheck(in.db, 1, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			qd, _, err := BuildQDSnapCheck(snap, po, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := typing.EvalGFPSnapCheck(qd, snap, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if in.naive {
				sameRows(t, in.name+"/"+pc.name+" full vs naive", want, typing.EvalGFPNaive(qd, in.db))
			}
			for _, workers := range []int{1, 0} {
				for _, shards := range []int{1, 4, 0} {
					what := fmt.Sprintf("%s/%s/p%d/s%d", in.name, pc.name, workers, shards)
					snap, err := compile.CompileShardsCheck(in.db, shards, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					qd, _, err := BuildQDSnapCheck(snap, po, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := evalQDQuotient(qd, snap, po, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameRows(t, what, got, want)
					if got.Program != qd || got.DB != in.db {
						t.Fatalf("%s: extent not over the caller's program and database", what)
					}
					seen := make(map[any]bool, len(got.Member))
					for i, row := range got.Member {
						if seen[row] {
							t.Fatalf("%s: row %d shares its bitset with another type", what, i)
						}
						seen[row] = true
					}
				}
			}
		}
	}
}

// figureFinerDB is a graph whose bisimulation is strictly finer than
// simulation equivalence: o1 -a-> A1; o2 -a-> A2, A3; A1 and A2 each have a
// b-edge to an atom; A3 has no out-edges.
func figureFinerDB() *graph.DB {
	db := graph.New()
	db.Link("o1", "A1", "a")
	db.Link("o2", "A2", "a")
	db.Link("o2", "A3", "a")
	db.LinkAtom("A1", "b", "v1", "x")
	db.LinkAtom("A2", "b", "v2", "y")
	return db
}

// TestQuotientMergesBlocks: bisimulation is strictly finer than simulation
// equivalence here — every object is its own block (the identity quotient),
// yet Stage 1 merges o1 with o2 and A1 with A2.
func TestQuotientMergesBlocks(t *testing.T) {
	db := figureFinerDB()
	snap := compile.Compile(db)
	part, err := refineBisim(snap, typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinimalSnap(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if part.numBlocks() <= len(res.Classes) {
		t.Fatalf("%d blocks, %d classes: want more blocks than classes", part.numBlocks(), len(res.Classes))
	}
	var got []string
	for _, c := range res.Classes {
		var names []string
		for _, o := range c {
			names = append(names, db.Name(o))
		}
		got = append(got, fmt.Sprint(names))
	}
	sort.Strings(got)
	want := []string{"[A1 A2]", "[A3]", "[o1 o2]"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("classes %v, want %v", got, want)
	}
	qd, _, _ := BuildQDSnapCheck(snap, typing.PictureOpts{}, 1, nil)
	full, _ := typing.EvalGFPSnapCheck(qd, snap, 1, nil)
	sameRows(t, "MinimalSnap QDExtent", res.QDExtent, full)
}

// TestQuotientPartialBlocks: on a graph with both symmetric and asymmetric
// parts (two copies of figureFinerDB plus a shared root), the quotient
// GFP expands rows through multi-member blocks and still merges blocks.
func TestQuotientPartialBlocks(t *testing.T) {
	db := graph.New()
	for _, c := range []string{"p", "q"} {
		db.Link("root", c+"o1", "has")
		db.Link("root", c+"o2", "has")
		db.Link(c+"o1", c+"A1", "a")
		db.Link(c+"o2", c+"A2", "a")
		db.Link(c+"o2", c+"A3", "a")
		db.LinkAtom(c+"A1", "b", c+"v1", "x")
		db.LinkAtom(c+"A2", "b", c+"v2", "y")
	}
	snap := compile.Compile(db)
	part, err := refineBisim(snap, typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if part.numBlocks() != 6 {
		t.Fatalf("%d blocks, want 6 (root plus five pairs)", part.numBlocks())
	}
	qd, _, _ := BuildQDSnapCheck(snap, typing.PictureOpts{}, 1, nil)
	got, err := evalQDQuotient(qd, snap, typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := typing.EvalGFPSnapCheck(qd, snap, 1, nil)
	sameRows(t, "partial blocks", got, full)
	sameRows(t, "partial blocks naive", got, typing.EvalGFPNaive(qd, db))
	res, err := MinimalSnap(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 4 {
		t.Fatalf("%d classes, want 4: the quotient GFP merges the o1/o2 and A1/A2 blocks", len(res.Classes))
	}
}

// chainDB is an n-node chain o0 -next-> o1 -next-> ... : every object is
// distinguished by its distances to both ends, which refinement only
// learns one step per round.
func chainDB(n int) *graph.DB {
	db := graph.New()
	for i := 0; i+1 < n; i++ {
		db.Link("o"+strconv.Itoa(i), "o"+strconv.Itoa(i+1), "next")
	}
	return db
}

// asymmetricDB is a random graph over a spine that leaves every object in a
// singleton block, reached in a few rounds through the random edges.
func asymmetricDB(n int) *graph.DB {
	rng := rand.New(rand.NewSource(7))
	db := chainDB(n)
	for i := 0; i < 2*n; i++ {
		from := db.Lookup("o" + strconv.Itoa(rng.Intn(n)))
		to := db.Lookup("o" + strconv.Itoa(rng.Intn(n)))
		if err := db.AddLink(from, to, []string{"a", "b", "c"}[rng.Intn(3)]); err != nil {
			panic(err)
		}
	}
	return db
}

// TestRefineSingletons: on a 4,096-node chain and on an asymmetric random
// graph every block is a singleton (the identity quotient), numbered in
// position order. The chain's refinement learns one step from each end per
// round, so it takes 2,049 rounds; each round re-signs only the neighbours
// of the objects that moved.
func TestRefineSingletons(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *graph.DB
	}{
		{"chain-4096", chainDB(4096)},
		{"asymmetric-512", asymmetricDB(512)},
	} {
		snap := compile.Compile(tc.db)
		start := time.Now()
		part, err := refineBisim(snap, typing.PictureOpts{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if part.numBlocks() != snap.NumComplex() {
			t.Fatalf("%s: %d blocks over %d objects, want singletons", tc.name, part.numBlocks(), snap.NumComplex())
		}
		for b, m := range part.members {
			if int(m[0]) != b {
				t.Fatalf("%s: block %d starts at position %d: blocks not numbered by first occurrence", tc.name, b, m[0])
			}
		}
		t.Logf("%s: %d rounds, %v", tc.name, part.rounds, elapsed)
		if tc.name == "chain-4096" && part.rounds != 2049 {
			t.Fatalf("chain: %d rounds, want 2049", part.rounds)
		}
	}
	// The identity quotient's rows are the full evaluation's (small chain:
	// the full Q_D table grows with objects²).
	db := chainDB(256)
	snap := compile.Compile(db)
	qd, _, _ := BuildQDSnapCheck(snap, typing.PictureOpts{}, 1, nil)
	got, err := evalQDQuotient(qd, snap, typing.PictureOpts{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := typing.EvalGFPSnapCheck(qd, snap, 1, nil)
	sameRows(t, "chain-256", got, full)
}

// TestRefineMatchesBisim: at default picture options the Stage 1 quotient
// partition is internal/bisim's partition, as a set partition.
func TestRefineMatchesBisim(t *testing.T) {
	var inputs []namedDB
	for _, p := range synth.Presets() {
		db, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, namedDB{name: fmt.Sprintf("db%d", p.DBNo), db: db})
	}
	for _, scale := range []int{1, 2, 4, 8} {
		if testing.Short() && scale > 2 {
			continue
		}
		db, _ := dbg.Generate(dbg.Options{Scale: scale})
		inputs = append(inputs, namedDB{name: fmt.Sprintf("dbg-x%d", scale), db: db})
	}
	inputs = append(inputs, namedDB{name: "finer", db: figureFinerDB()})
	for _, in := range inputs {
		snap := compile.Compile(in.db)
		part, err := refineBisim(snap, typing.PictureOpts{}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := bisim.ComputeCheck(in.db, nil)
		if err != nil {
			t.Fatal(err)
		}
		if part.numBlocks() != ref.NumBlocks() {
			t.Fatalf("%s: %d blocks, bisim has %d", in.name, part.numBlocks(), ref.NumBlocks())
		}
		// Same block count plus every block inside one bisim block means
		// the same set partition.
		for b, m := range part.members {
			want := ref.BlockOf[snap.Complex[m[0]]]
			for _, p := range m {
				if got := ref.BlockOf[snap.Complex[p]]; got != want {
					t.Fatalf("%s: block %d spans bisim blocks %d and %d", in.name, b, want, got)
				}
			}
		}
	}
}

// TestStage1DeterministicAcrossParallelism: classes, names and the retained
// Q_D extent are identical at Parallelism 1, 2 and 0, at every picture
// precision.
func TestStage1DeterministicAcrossParallelism(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{Seed: 2, Scale: 4})
	for _, pc := range pictureCases(db) {
		var ref *Result
		for _, p := range []int{1, 2, 0} {
			opts := pc.opts
			opts.Parallelism = p
			res, err := Minimal(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Program.String() != ref.Program.String() {
				t.Fatalf("%s p=%d: program differs", pc.name, p)
			}
			if fmt.Sprint(res.Classes) != fmt.Sprint(ref.Classes) {
				t.Fatalf("%s p=%d: classes differ", pc.name, p)
			}
			sameRows(t, fmt.Sprintf("%s p=%d QDExtent", pc.name, p), res.QDExtent, ref.QDExtent)
		}
	}
}

// TestRefineCancellation: a check that fails on its N-th call aborts inside
// the refinement with exactly that error, for every N the refinement
// reaches, and leaves no goroutine behind.
func TestRefineCancellation(t *testing.T) {
	db, _ := dbg.Generate(dbg.Options{Scale: 4})
	snap := compile.Compile(db)
	calls := 0
	if _, err := refineBisim(snap, typing.PictureOpts{}, 1, func() error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls < 3 {
		t.Fatalf("refinement consulted check %d times, want at least once per round", calls)
	}
	errStop := errors.New("stop")
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		for n := 1; n <= calls; n++ {
			var seen atomic.Int64 // parallel signing chunks call check concurrently
			check := func() error {
				if seen.Add(1) >= int64(n) {
					return errStop
				}
				return nil
			}
			if _, err := refineBisim(snap, typing.PictureOpts{}, workers, check); !errors.Is(err, errStop) {
				t.Fatalf("workers %d, fail at call %d: err = %v", workers, n, err)
			}
			// Through Stage 1 as a whole, too.
			seen.Store(0)
			if _, err := MinimalSnap(snap, Options{Parallelism: workers, Check: check}); !errors.Is(err, errStop) {
				t.Fatalf("workers %d, Stage 1 fail at call %d: err = %v", workers, n, err)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after cancellation, %d before", g, before)
	}
}

// BenchmarkStage1Identity measures Stage 1 where the bisimulation quotient
// is the identity, so the refinement is pure overhead on top of the full
// fixpoint: a 4,096-node chain (one refinement round per two chain steps)
// and an asymmetric random graph (three rounds). The refine sub-benchmarks
// time the refinement alone.
func BenchmarkStage1Identity(b *testing.B) {
	for _, bc := range []struct {
		name string
		db   *graph.DB
	}{
		{"chain-4096", chainDB(4096)},
		{"asymmetric-512", asymmetricDB(512)},
	} {
		snap := compile.Compile(bc.db)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MinimalSnap(snap, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/refine", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := refineBisim(snap, typing.PictureOpts{}, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
