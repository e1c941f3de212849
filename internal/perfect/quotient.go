package perfect

import (
	"cmp"
	"slices"
	"strconv"

	"schemex/internal/bitset"
	"schemex/internal/compile"
	"schemex/internal/graph"
	"schemex/internal/par"
	"schemex/internal/typing"
)

// Stage 1 on the bisimulation quotient.
//
// The Q_D greatest fixpoint is the largest two-way simulation: o′ ∈ M(t_o)
// exactly when o′ simulates o over labeled in- and out-edges, with atomic
// targets matched at the picture precision (sort under UseSorts, value on
// ValueLabels). Two-way bisimilar objects simulate each other, so they have
// equal Q_D rows, and every row is closed under bisimilarity — a union of
// bisimulation blocks. Evaluating Q_D on the quotient of the snapshot by its
// coarsest bisimulation (one object per block) therefore gives the block ×
// block simulation, and expanding each block row by block membership gives
// exactly the per-object rows of the full evaluation, bit for bit. The
// support-count table the full evaluation allocates grows with objects ×
// links per type; on the quotient it grows with blocks instead.

// Signature keys pack (direction, label ID, target) into one uint64: the
// target is a neighbour's block for complex edges and an atomic form for
// atomic out-edges.
const (
	keyOutComplex uint64 = 0 << 62
	keyOutAtomic  uint64 = 1 << 62
	keyIn         uint64 = 2 << 62
	keyDirMask    uint64 = 3 << 62
	keyLabShift          = 32
	keyLabMask    uint64 = 1<<30 - 1
)

// parSignMin is the dirty-list length below which a refinement round signs
// serially: rounds on long chains re-sign a handful of objects each, and a
// goroutine fan-out per round would cost more than the signing.
const parSignMin = 512

// bisimPartition is the coarsest two-way bisimulation of a snapshot's
// complex objects at one picture precision.
type bisimPartition struct {
	// blockOf maps a complex position to its block; blocks are numbered by
	// first occurrence in position order.
	blockOf []int32
	// members lists each block's positions, ascending.
	members [][]int32
	// rounds counts refinement rounds, the final stable one included.
	rounds int
	// sigs holds each position's final signature, in the refinement's
	// internal block numbering (see internal).
	sigs [][]uint64
	// internal maps the refinement's internal block IDs to blockOf's.
	internal []int32
	// forms lists the atomic forms that atomic-out keys index.
	forms []graph.Value
}

// atomForms assigns each atomic object its form IDs at the picture
// precision: the sort (when UseSorts) alone, or the sort and the value text
// on value labels. Forms are interned in first-use order, so equal forms
// share one ID and the quotient shares one atom per form.
type atomForms struct {
	snap      *compile.Snapshot
	useSorts  bool
	valueLab  []bool  // label ID -> label's atomic values are typed
	plain     []int32 // sort -> form ID of a value-free form
	valueForm []int32 // object ID -> form ID with value (value labels only)
	forms     []graph.Value
}

func newAtomForms(snap *compile.Snapshot, opts typing.PictureOpts) *atomForms {
	f := &atomForms{snap: snap, useSorts: opts.UseSorts, valueLab: make([]bool, snap.NumLabels())}
	ids := make(map[graph.Value]int32)
	intern := func(v graph.Value) int32 {
		id, ok := ids[v]
		if !ok {
			id = int32(len(f.forms))
			ids[v] = id
			f.forms = append(f.forms, v)
		}
		return id
	}
	f.plain = make([]int32, compile.NumSorts)
	for s := range f.plain {
		f.plain[s] = intern(f.project(graph.Value{Sort: graph.Sort(s)}))
	}
	anyValue := false
	for l := range opts.ValueLabels {
		if id, ok := snap.LabelID(l); ok && opts.ValueLabels[l] {
			f.valueLab[id] = true
			anyValue = true
		}
	}
	if anyValue {
		f.valueForm = make([]int32, snap.NumObjects())
		for o := range f.valueForm {
			if snap.IsAtomic(graph.ObjectID(o)) {
				v, _ := snap.Value(graph.ObjectID(o))
				f.valueForm[o] = intern(graph.Value{Sort: f.project(v).Sort, Text: v.Text})
			}
		}
	}
	return f
}

// project drops the parts of a value the picture does not type: the sort
// without UseSorts, and always the text (value forms add it back).
func (f *atomForms) project(v graph.Value) graph.Value {
	if !f.useSorts {
		return graph.Value{Sort: graph.SortString}
	}
	return graph.Value{Sort: v.Sort}
}

// of returns the form ID of atomic object a reached over label lab.
func (f *atomForms) of(a int32, lab int32) uint64 {
	if f.valueLab[lab] {
		return uint64(f.valueForm[a])
	}
	return uint64(f.plain[f.snap.Sorts[a]])
}

// refineBisim computes the coarsest two-way bisimulation of snap's complex
// objects, distinguishing atomic targets exactly as Q_D rules do under opts.
//
// A complex object's signature is its sorted, deduplicated set of (out,
// label, neighbour block), (out, label, atomic form) and (in, label,
// neighbour block) keys. Refinement starts from one block and splits blocks
// by signature until stable. Only objects with a neighbour whose block ID
// changed in the previous round are re-signed: every other member of a
// block still carries the block's signature, so a split needs only the
// re-signed members, and the group holding the unchanged members keeps the
// block's ID (when every member was re-signed, the largest group keeps it).
// A chain therefore re-signs a bounded set per round instead of every
// object. Splitting only ever separates objects with different current
// signatures, and bisimilar objects always have equal ones, so the stable
// partition is the coarsest bisimulation; the final numbering by first
// occurrence in position order makes it independent of workers.
//
// check is consulted every checkEvery signed objects and at least once per
// round.
func refineBisim(snap *compile.Snapshot, opts typing.PictureOpts, workers int, check func() error) (*bisimPartition, error) {
	nC := snap.NumComplex()
	forms := newAtomForms(snap, opts)
	blk := make([]int32, nC)
	sigs := make([][]uint64, nC)
	size := []int32{int32(nC)}
	blockSig := [][]uint64{nil} // signature of a block's members
	pos := snap.Pos

	sign := func(p int) []uint64 {
		o := snap.Complex[p]
		to, lab := snap.Out(o)
		from, flab := snap.In(o)
		keys := make([]uint64, 0, len(to)+len(from))
		for k, t := range to {
			l := uint64(lab[k]) << keyLabShift
			if q := pos[t]; q >= 0 {
				keys = append(keys, keyOutComplex|l|uint64(uint32(blk[q])))
			} else {
				keys = append(keys, keyOutAtomic|l|forms.of(t, lab[k]))
			}
		}
		for k, s := range from {
			keys = append(keys, keyIn|uint64(flab[k])<<keyLabShift|uint64(uint32(blk[pos[s]])))
		}
		slices.Sort(keys)
		return slices.Compact(keys)
	}

	dirty := make([]int32, nC)
	for p := range dirty {
		dirty[p] = int32(p)
	}
	mark := make([]int, nC) // round in which a position was last queued
	var moved []int32       // positions whose block ID changed this round
	var groups []int
	rounds := 0
	steps := 0
	for len(dirty) > 0 {
		rounds++
		w := workers
		if len(dirty) < parSignMin {
			w = 1
		}
		if err := par.DoErr(w, len(dirty), func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if check != nil && (i-lo)%checkEvery == 0 {
					if err := check(); err != nil {
						return err
					}
				}
				p := dirty[i]
				sigs[p] = sign(int(p))
			}
			return nil
		}); err != nil {
			return nil, err
		}

		// Split each block holding re-signed members, block by block in
		// (block, signature, position) order so numbering is deterministic.
		slices.SortFunc(dirty, func(a, b int32) int {
			if c := cmp.Compare(blk[a], blk[b]); c != 0 {
				return c
			}
			if c := slices.Compare(sigs[a], sigs[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		moved = moved[:0]
		for lo := 0; lo < len(dirty); {
			b := blk[dirty[lo]]
			hi := lo
			for hi < len(dirty) && blk[dirty[hi]] == b {
				hi++
			}
			run := dirty[lo:hi]
			// groups holds the start of each run of equal signatures.
			groups = groups[:0]
			for g := range run {
				if g == 0 || !slices.Equal(sigs[run[g]], sigs[run[g-1]]) {
					groups = append(groups, g)
				}
			}
			groups = append(groups, len(run))
			// The group that keeps b: the one matching the unchanged
			// members' signature, or else the largest (first on ties).
			keep := -1
			if clean := int(size[b]) - len(run); clean > 0 {
				for gi, g := range groups[:len(groups)-1] {
					if slices.Equal(sigs[run[g]], blockSig[b]) {
						keep = gi
					}
				}
			} else {
				for gi := 0; gi+1 < len(groups); gi++ {
					if keep < 0 || groups[gi+1]-groups[gi] > groups[keep+1]-groups[keep] {
						keep = gi
					}
				}
				blockSig[b] = sigs[run[groups[keep]]]
			}
			for gi := 0; gi+1 < len(groups); gi++ {
				if gi == keep {
					continue
				}
				g, e := groups[gi], groups[gi+1]
				nb := int32(len(size))
				size = append(size, int32(e-g))
				size[b] -= int32(e - g)
				blockSig = append(blockSig, sigs[run[g]])
				for _, p := range run[g:e] {
					blk[p] = nb
					moved = append(moved, p)
				}
			}
			if steps += len(run); check != nil && steps >= checkEvery {
				steps = 0
				if err := check(); err != nil {
					return nil, err
				}
			}
			lo = hi
		}

		// Next round re-signs the complex neighbours of moved objects.
		dirty = dirty[:0]
		queue := func(q int32) {
			if q >= 0 && mark[q] != rounds {
				mark[q] = rounds
				dirty = append(dirty, q)
			}
		}
		for _, p := range moved {
			o := snap.Complex[p]
			to, _ := snap.Out(o)
			for _, t := range to {
				queue(pos[t])
			}
			from, _ := snap.In(o)
			for _, s := range from {
				queue(pos[s])
			}
		}
	}

	// Renumber blocks by first occurrence in position order.
	part := &bisimPartition{blockOf: make([]int32, nC), rounds: rounds, sigs: sigs, forms: forms.forms}
	part.internal = make([]int32, len(size))
	for i := range part.internal {
		part.internal[i] = -1
	}
	for p, b := range blk {
		c := part.internal[b]
		if c < 0 {
			c = int32(len(part.members))
			part.internal[b] = c
			part.members = append(part.members, nil)
		}
		part.blockOf[p] = c
		part.members[c] = append(part.members[c], int32(p))
	}
	return part, nil
}

// numBlocks reports the number of blocks.
func (bp *bisimPartition) numBlocks() int { return len(bp.members) }

// quotientDB builds the quotient database: complex object b (ID b) per
// block, atoms per form after them, and an ℓ-edge from block b to each
// block or form its members reach over ℓ. Bisimilar members reach the same
// set, so the first member's signature lists it; in-edges need no
// translation, since they are the blocks' out-edges seen from the target.
func (bp *bisimPartition) quotientDB(snap *compile.Snapshot) (*graph.DB, error) {
	db := graph.New()
	nB := bp.numBlocks()
	for b := 0; b < nB; b++ {
		db.Intern("b" + strconv.Itoa(b))
	}
	atom := make([]graph.ObjectID, len(bp.forms))
	for i := range atom {
		atom[i] = graph.NoObject
	}
	for b := 0; b < nB; b++ {
		for _, k := range bp.sigs[bp.members[b][0]] {
			label := snap.Labels[k>>keyLabShift&keyLabMask]
			target := uint32(k)
			var to graph.ObjectID
			switch k & keyDirMask {
			case keyOutComplex:
				to = graph.ObjectID(bp.internal[target])
			case keyOutAtomic:
				if atom[target] == graph.NoObject {
					atom[target] = db.Intern("v" + strconv.Itoa(int(target)))
					if err := db.SetAtomic(atom[target], bp.forms[target]); err != nil {
						return nil, err
					}
				}
				to = atom[target]
			default:
				continue
			}
			if err := db.AddLink(graph.ObjectID(b), to, label); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// evalQDQuotient computes the Q_D greatest fixpoint of qd (built from snap
// with opts) through the bisimulation quotient: refine, evaluate the
// quotient's own Q_D with the ordinary builder and evaluator, and expand
// every block row back to object rows. When every block is a singleton the
// quotient is the identity and the evaluation runs on snap directly. Each
// type gets its own row, so the extent is as independent as
// EvalGFPSnapCheck's.
func evalQDQuotient(qd *typing.Program, snap *compile.Snapshot, opts typing.PictureOpts, workers int, check func() error) (*typing.Extent, error) {
	part, err := refineBisim(snap, opts, workers, check)
	if err != nil {
		return nil, err
	}
	if part.numBlocks() == snap.NumComplex() {
		return typing.EvalGFPSnapCheck(qd, snap, workers, check)
	}
	qdb, err := part.quotientDB(snap)
	if err != nil {
		return nil, err
	}
	qsnap, err := compile.CompileCheck(qdb, workers, check)
	if err != nil {
		return nil, err
	}
	qqd, _, err := BuildQDSnapCheck(qsnap, opts, workers, check)
	if err != nil {
		return nil, err
	}
	qext, err := typing.EvalGFPSnapCheck(qqd, qsnap, workers, check)
	if err != nil {
		return nil, err
	}

	n := snap.NumObjects()
	nB := part.numBlocks()
	rows := make([]*bitset.Set, nB)
	for b := range rows {
		if check != nil && b%checkEvery == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		row := bitset.New(n)
		qext.Member[b].ForEach(func(c int) {
			for _, p := range part.members[c] {
				row.Set(int(snap.Complex[p]))
			}
		})
		rows[b] = row
	}
	member := make([]*bitset.Set, len(qd.Types))
	for p := range member {
		if check != nil && p%checkEvery == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
		b := part.blockOf[p]
		if part.members[b][0] == int32(p) {
			member[p] = rows[b]
		} else {
			member[p] = rows[b].Clone()
		}
	}
	return &typing.Extent{Program: qd, DB: snap.DB(), Member: member}, nil
}
