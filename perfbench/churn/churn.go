// Package churn generates the seeded delta stream the benchmark's session
// workloads send: copies of existing objects are inserted and later removed,
// and a few existing links are unlinked and later relinked.
//
// The generator owns the expected graph: every delta it returns has already
// been applied to it, so a caller can compare a server's state against
// Graph() at any point. Three properties hold by construction and are
// pinned by the package tests:
//
//   - every delta applies cleanly to the expected graph;
//   - the number of live copies stays within [MinLive, Slots] once filled,
//     and the object-ID space stays bounded, because each copy lives in one
//     of Slots fixed slots that are reused after a removal;
//   - the stream is a pure function of the base graph and the seed.
package churn

import (
	"fmt"
	"math/rand"

	"schemex/internal/graph"
)

// Config sizes the stream.
type Config struct {
	// Seed drives every choice the generator makes.
	Seed int64
	// Slots is the upper edge of the live band: at most this many inserted
	// copies are live at once. Each slot is bound to one template object of
	// the base graph, so re-inserting a slot reuses its names.
	Slots int
	// MinLive is the lower edge of the band once it has been reached:
	// removals never take the live count below it.
	MinLive int
	// UnlinkProb is the chance that an op unlinks a base link (when no
	// unlink is outstanding); the link is relinked 1..MaxRelinkDelay ops
	// later.
	UnlinkProb     float64
	MaxRelinkDelay int
}

// maxTemplateDegree excludes hub objects from the templates, so one insert
// stays a small delta.
const maxTemplateDegree = 32

// kind names what one delta does.
type kind int

// The op kinds, as counted by Counts.
const (
	insertOp kind = iota
	removeOp
	unlinkOp
	relinkOp
	numKinds
)

func (k kind) String() string {
	return [...]string{"insert", "remove", "unlink", "relink"}[k]
}

// slot is one reusable copy position.
type slot struct {
	name     string
	template graph.ObjectID
	live     bool
	// atoms maps a template atomic target to the slot's own atomic copy,
	// declared the first time the slot is inserted and kept afterwards (a
	// removal detaches only the copy, so its atomics stay atomic).
	atoms map[graph.ObjectID]string
}

type pending struct {
	from, to, label string
	due             int
}

// Gen is the generator. It is not safe for concurrent use.
type Gen struct {
	cfg    Config
	rng    *rand.Rand
	db     *graph.DB
	base   int // objects of the base graph; higher IDs are churn objects
	slots  []slot
	live   int
	relink *pending
	ops    int
	counts [numKinds]int
}

// New starts a stream over base, which the generator does not modify (it
// applies deltas copy-on-write).
func New(base *graph.DB, cfg Config) (*Gen, error) {
	if cfg.MinLive < 0 || cfg.MinLive >= cfg.Slots {
		return nil, fmt.Errorf("churn: band [%d, %d] needs 0 <= MinLive < Slots", cfg.MinLive, cfg.Slots)
	}
	if cfg.MaxRelinkDelay <= 0 {
		return nil, fmt.Errorf("churn: MaxRelinkDelay must be positive, got %d", cfg.MaxRelinkDelay)
	}
	g := &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), db: base, base: base.NumObjects()}
	var templates []graph.ObjectID
	for _, o := range base.ComplexObjects() {
		// Two links or more: with at most one unlink outstanding, a template
		// always keeps a link for its copy to take.
		deg := len(base.Out(o)) + len(base.In(o))
		if deg >= 2 && deg <= maxTemplateDegree {
			templates = append(templates, o)
		}
	}
	if len(templates) == 0 {
		return nil, fmt.Errorf("churn: base graph has no template objects")
	}
	for i := 0; i < cfg.Slots; i++ {
		name := fmt.Sprintf("churn/%d", i)
		if base.Lookup(name) != graph.NoObject {
			return nil, fmt.Errorf("churn: base graph already has an object named %q", name)
		}
		g.slots = append(g.slots, slot{
			name:     name,
			template: templates[g.rng.Intn(len(templates))],
			atoms:    make(map[graph.ObjectID]string),
		})
	}
	return g, nil
}

// Graph is the expected graph: the base with every returned delta applied.
func (g *Gen) Graph() *graph.DB { return g.db }

// Live is the number of inserted copies currently present.
func (g *Gen) Live() int { return g.live }

// Counts reports how many deltas of each kind were generated.
func (g *Gen) Counts() map[string]int {
	out := make(map[string]int, numKinds)
	for k := kind(0); k < numKinds; k++ {
		out[k.String()] = g.counts[k]
	}
	return out
}

// Next returns the next delta, already applied to the expected graph.
func (g *Gen) Next() (*graph.Delta, error) {
	d, k := g.choose()
	next, _, err := g.db.ApplyDelta(d)
	if err != nil {
		return nil, fmt.Errorf("churn: op %d (%s) does not apply: %w", g.ops, k, err)
	}
	g.db = next
	g.ops++
	g.counts[k]++
	return d, nil
}

// choose picks and builds the next delta, updating the slot bookkeeping.
func (g *Gen) choose() (*graph.Delta, kind) {
	if p := g.relink; p != nil && g.ops >= p.due {
		g.relink = nil
		return (&graph.Delta{}).AddLink(p.from, p.to, p.label), relinkOp
	}
	if g.relink == nil && g.rng.Float64() < g.cfg.UnlinkProb {
		if d := g.unlink(); d != nil {
			return d, unlinkOp
		}
	}
	// A fair coin inside the band; at its edges the op is forced, so the
	// live count climbs to MinLive and then never leaves [MinLive, Slots].
	insert := g.live <= g.cfg.MinLive || (g.live < g.cfg.Slots && g.rng.Intn(2) == 0)
	if insert {
		return g.insert(g.pickSlot(false)), insertOp
	}
	s := g.pickSlot(true)
	s.live = false
	g.live--
	return (&graph.Delta{}).RemoveObject(s.name), removeOp
}

// pickSlot returns a uniformly chosen slot whose liveness equals live.
func (g *Gen) pickSlot(live bool) *slot {
	want := g.live
	if !live {
		want = len(g.slots) - g.live
	}
	k := g.rng.Intn(want)
	for i := range g.slots {
		if g.slots[i].live == live {
			if k == 0 {
				return &g.slots[i]
			}
			k--
		}
	}
	panic("churn: live count out of sync with slots") // bookkeeping bug
}

// insert copies the slot's template: the copy links to the template's
// complex out-neighbours and from its in-neighbours with the same labels,
// and to its own atomics carrying the template's atomic values. Only links
// to base objects are copied, so copies never reference each other and a
// removal detaches exactly one copy.
func (g *Gen) insert(s *slot) *graph.Delta {
	d := &graph.Delta{}
	var links [][3]string
	for _, e := range g.db.Out(s.template) {
		if int(e.To) >= g.base {
			continue
		}
		if v, ok := g.db.AtomicValue(e.To); ok {
			a, seen := s.atoms[e.To]
			if !seen {
				a = fmt.Sprintf("%s/%d", s.name, len(s.atoms))
				s.atoms[e.To] = a
				d.AddAtomic(a, v)
			}
			links = append(links, [3]string{s.name, a, e.Label})
			continue
		}
		links = append(links, [3]string{s.name, g.db.Name(e.To), e.Label})
	}
	for _, e := range g.db.In(s.template) {
		if int(e.From) < g.base {
			links = append(links, [3]string{g.db.Name(e.From), s.name, e.Label})
		}
	}
	if len(links) == 0 {
		panic("churn: template without base links") // excluded by New's degree floor
	}
	for _, l := range links {
		d.AddLink(l[0], l[1], l[2])
	}
	s.live = true
	g.live++
	return d
}

// unlink removes one base link between base objects, scheduling its
// relink. It returns nil when the drawn object has no such link.
func (g *Gen) unlink() *graph.Delta {
	o := graph.ObjectID(g.rng.Intn(g.base))
	var cands []graph.Edge
	for _, e := range g.db.Out(o) {
		if int(e.To) < g.base {
			cands = append(cands, e)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	e := cands[g.rng.Intn(len(cands))]
	p := &pending{from: g.db.Name(e.From), to: g.db.Name(e.To), label: e.Label}
	p.due = g.ops + 1 + g.rng.Intn(g.cfg.MaxRelinkDelay)
	g.relink = p
	return (&graph.Delta{}).RemoveLink(p.from, p.to, p.label)
}
