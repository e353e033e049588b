// Package cylinder implements "match cylinders": the elementary events
// underlying both the SpanL witness semantics of Proposition 5.2 and the
// Karp–Luby FPRAS of Corollary 5.3 of the paper.
//
// For a BCQ q = R_1(x̄_1) ∧ … ∧ R_m(x̄_m) and an incomplete database D, a
// valuation ν satisfies ν(D) ⊨ q iff there is a choice of one fact per atom
// and a homomorphism matching each atom to its fact. Each choice of facts
// unifies into a conjunction of equality constraints over nulls (and pinned
// constants) — a cylinder: a set of valuations of product form. The
// satisfying valuations of q are exactly the union of its cylinders, so
//
//   - the exact count is inclusion–exclusion over the cylinders: the
//     planner's exact #Val route whenever a query has few cylinders, since
//     its cost is exponential in the number of cylinders but not in the
//     number of nulls,
//   - and the Karp–Luby estimator samples cylinders proportionally to their
//     weights (implemented in package approx).
//
// Build compiles a Set once, and both consumers run on it: the nulls some
// cylinder constrains become integer slots sorted by null ID, each slot's
// domain and each class's allowed values become ascending lists of
// constant indices, and a single factor holds the product of the domain
// sizes of the nulls no cylinder constrains. Sampling draws from the
// lists; inclusion–exclusion compiles them further into bitmasks over
// the few constants its intersections can keep (see UnionCountParallel).
//
// Construction is output-sensitive. It enumerates fact choices as a join
// in atom order: an atom whose variable an earlier atom pins to a
// constant only tries the facts holding that constant (or a null) there.
// The cylinders still come out in the order of an odometer over every
// choice, the last atom fastest, so cylinder indices, and with them
// seeded estimates, do not depend on the index. BuildAtMost refuses a
// query as soon as it finds one cylinder past its limit, so a caller
// that only wants a few pays for a few. Weights and their running sums
// are derived on first use, by Weight, TotalWeight or SampleIndex; the
// inclusion–exclusion walk never needs them.
package cylinder

import (
	"cmp"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sync"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Class is one equality class of a cylinder: the nulls it contains must all
// take the same value, drawn from Allowed (the intersection of their
// domains, further pinned by constants when the unification forced one).
type Class struct {
	Nulls   []core.NullID
	Allowed []string

	slots   []int32 // the slots of Nulls, ascending
	allowed []int32 // Allowed as constant indices, ascending
}

// constrains reports whether the class restricts its nulls in s: it has
// two or more, or it allows less than its one null's domain.
func (c *Class) constrains(s *Set) bool {
	return len(c.slots) > 1 || len(c.allowed) < len(s.doms[c.slots[0]])
}

// Cylinder is a product-form set of valuations of a database: each equality
// class picks one allowed value, every other null is free over its domain.
type Cylinder struct {
	Classes []Class

	set    *Set
	weight *big.Int // set by Set.weigh
}

// Weight returns the number of valuations in the cylinder, given the
// database the cylinder was built from.
func (c *Cylinder) Weight() *big.Int {
	c.set.weigh()
	return new(big.Int).Set(c.weight)
}

// Contains reports whether the valuation lies in the cylinder.
func (c *Cylinder) Contains(v core.Valuation) bool {
	for _, cl := range c.Classes {
		val, ok := v[cl.Nulls[0]]
		if !ok {
			return false
		}
		for _, n := range cl.Nulls[1:] {
			if v[n] != val {
				return false
			}
		}
		found := false
		for _, a := range cl.Allowed {
			if a == val {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Set holds the cylinders of a query over a database, compiled for
// inclusion–exclusion and sampling. It is read-only after Build, except
// for the weights it derives once on first use, and safe for concurrent
// use.
type Set struct {
	Cylinders []*Cylinder

	nulls  []core.NullID // slot → null, ascending
	consts []string      // constant index → constant
	doms   [][]int32     // slot → its domain as constant indices, ascending
	free   *big.Int      // Π |dom| over the database's nulls in no slot

	// Derived by weigh on first use. The running sums cum[j] =
	// Σ_{i ≤ j} weight(C_i) / free, which SampleIndex searches, are held
	// in cumWords when the last fits a machine word, else in cum.
	weighed  sync.Once
	total    *big.Int // Σ_j weight(C_j)
	cum      []*big.Int
	cumWords []uint64
}

// maxBuildCylinders bounds cylinder construction: the number of
// cylinders is at most the product over atoms of the relation sizes
// (summed over disjuncts), which is polynomial for a fixed query but can
// still be large.
const maxBuildCylinders = 1 << 16

// ErrTooManyCylinders is wrapped by the error of a build that finds more
// cylinders than its limit.
var ErrTooManyCylinders = errors.New("cylinder: too many cylinders")

// Build constructs the cylinders of q over db. q must be a BCQ or a UCQ.
// It is BuildAtMost with the package's construction bound of 65,536
// cylinders.
func Build(db *core.Database, q cq.Query) (*Set, error) {
	return BuildAtMost(db, q, maxBuildCylinders)
}

// BuildAtMost constructs the cylinders of q over db, or refuses with an
// error wrapping ErrTooManyCylinders as soon as it finds cylinder
// limit+1: a limit is a refusal, never a truncation. q must be a BCQ or
// a UCQ. The cylinders come in disjunct order, and within a disjunct in
// the lexicographic order of their fact choices, atom by atom. Time
// grows with the choices that survive the constant indexes, not with
// every choice of facts; memory grows with the domain sizes of the nulls
// the query's atoms can match, not with their number times the number of
// constants.
func BuildAtMost(db *core.Database, q cq.Query, limit int) (*Set, error) {
	disjuncts, err := validDisjuncts(db, q)
	if err != nil {
		return nil, err
	}
	b := newBuilder(db, disjuncts)
	for _, d := range disjuncts {
		if err := b.addDisjunct(d, limit); err != nil {
			return nil, err
		}
	}
	return b.finish(), nil
}

// validDisjuncts validates db and q and returns q's disjuncts.
func validDisjuncts(db *core.Database, q cq.Query) ([]*cq.BCQ, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	var disjuncts []*cq.BCQ
	switch t := q.(type) {
	case *cq.BCQ:
		disjuncts = []*cq.BCQ{t}
	case *cq.UCQ:
		disjuncts = t.Disjuncts
	default:
		return nil, fmt.Errorf("cylinder: query %v is not a (union of) BCQ(s)", q)
	}
	for _, d := range disjuncts {
		if err := d.Validate(); err != nil {
			return nil, err
		}
	}
	return disjuncts, nil
}

// builder is the state of one Build.
type builder struct {
	db  *core.Database
	set *Set

	// The candidates are the nulls of the facts some atom can match,
	// ascending: the only nulls a cylinder can constrain. Those some
	// cylinder does constrain become the Set's slots.
	cands    []core.NullID
	candDom  [][]int32 // candidate → its domain as constant indices, ascending
	constIdx map[string]int32
	// facts holds each matched relation's facts with their arguments
	// encoded: constant i as i ≥ 0, candidate c as −(c+1).
	facts map[string][][]int32

	// Scratch of unify. Its items are the query's variables followed by
	// the nulls of the chosen facts.
	parent  []int32
	pin     []int32 // root item → pinned constant, or −1
	items   []int32 // null item − variables → candidate
	order   []int32 // null items by candidate
	classAt []int32 // root item → class index, or −1
	allowed [][]int32
	buf     []int32 // backing of the allowed lists unify intersects
}

// eligible reports whether every atom of q can match some fact; a
// disjunct with an atom that cannot contributes no cylinders.
func eligible(db *core.Database, q *cq.BCQ) bool {
	for _, a := range q.Atoms {
		if len(db.FactsOf(a.Rel)) == 0 || db.Arity(a.Rel) != len(a.Vars) {
			return false
		}
	}
	return true
}

// newBuilder numbers the candidates and constants of the eligible
// disjuncts and encodes the domains and facts their atoms match.
func newBuilder(db *core.Database, disjuncts []*cq.BCQ) *builder {
	b := &builder{db: db, set: &Set{}, facts: make(map[string][][]int32)}
	var rels []string
	candOf := make(map[core.NullID]int32)
	grounds := 0 // constant arguments of the matched facts
	for _, d := range disjuncts {
		if !eligible(db, d) {
			continue
		}
		for _, a := range d.Atoms {
			if slices.Contains(rels, a.Rel) {
				continue
			}
			rels = append(rels, a.Rel)
			for _, f := range db.FactsOf(a.Rel) {
				for _, v := range f.Args {
					if v.IsNull() {
						candOf[v.NullID()] = 0
					} else {
						grounds++
					}
				}
			}
		}
	}
	for n := range candOf {
		b.cands = append(b.cands, n)
	}
	slices.Sort(b.cands)
	// Size the constant table for the domains and the facts' constants,
	// which hold every constant it gets. A uniform database's nulls share
	// one encoded domain.
	size := grounds
	for _, n := range b.cands {
		if size += len(db.Domain(n)); db.Uniform() {
			break
		}
	}
	b.constIdx = make(map[string]int32, size)
	b.set.consts = make([]string, 0, size)
	var uniform []int32
	if db.Uniform() && len(b.cands) > 0 {
		uniform = b.encode(db.UniformDomain())
	}
	b.candDom = make([][]int32, len(b.cands))
	for c, n := range b.cands {
		candOf[n] = int32(c)
		if db.Uniform() {
			b.candDom[c] = uniform
		} else {
			b.candDom[c] = b.encode(db.Domain(n))
		}
	}
	for _, rel := range rels {
		fs := db.FactsOf(rel)
		enc := make([][]int32, len(fs))
		n := 0
		for _, f := range fs {
			n += len(f.Args)
		}
		args := make([]int32, n)
		for i, f := range fs {
			enc[i], args = args[:len(f.Args):len(f.Args)], args[len(f.Args):]
			for p, v := range f.Args {
				if v.IsNull() {
					enc[i][p] = -candOf[v.NullID()] - 1
				} else {
					enc[i][p] = b.intern(v.Constant())
				}
			}
		}
		b.facts[rel] = enc
	}
	return b
}

func (b *builder) intern(k string) int32 {
	i, ok := b.constIdx[k]
	if !ok {
		i = int32(len(b.set.consts))
		b.constIdx[k] = i
		b.set.consts = append(b.set.consts, k)
	}
	return i
}

// encode returns the constant indices of dom, ascending.
func (b *builder) encode(dom []string) []int32 {
	enc := make([]int32, len(dom))
	for i, k := range dom {
		enc[i] = b.intern(k)
	}
	slices.Sort(enc)
	return slices.Compact(enc)
}

// posIndex indexes a relation's encoded facts by the constant at one
// position: ground lists the facts with a constant there, by constant
// and then fact; wild lists the facts with a null there, ascending.
type posIndex struct {
	ground []keyed
	wild   []int32
}

// keyed is fact f with constant k at the indexed position.
type keyed struct{ k, f int32 }

func newPosIndex(facts [][]int32, pos int) *posIndex {
	n := 0
	for _, f := range facts {
		if f[pos] >= 0 {
			n++
		}
	}
	ix := &posIndex{ground: make([]keyed, 0, n), wild: make([]int32, 0, len(facts)-n)}
	for i, f := range facts {
		if f[pos] >= 0 {
			ix.ground = append(ix.ground, keyed{f[pos], int32(i)})
		} else {
			ix.wild = append(ix.wild, int32(i))
		}
	}
	slices.SortFunc(ix.ground, func(x, y keyed) int {
		return cmp.Or(cmp.Compare(x.k, y.k), cmp.Compare(x.f, y.f))
	})
	return ix
}

// bucket returns the facts with constant k at the indexed position.
func (ix *posIndex) bucket(k int32) []keyed {
	byKey := func(e keyed, k int32) int { return cmp.Compare(e.k, k) }
	lo, _ := slices.BinarySearchFunc(ix.ground, k, byKey)
	hi, _ := slices.BinarySearchFunc(ix.ground[lo:], k+1, byKey)
	return ix.ground[lo : lo+hi]
}

// step is one atom of a disjunct in the enumeration.
type step struct {
	facts [][]int32 // the atom's relation, encoded
	keys  []key     // the positions whose variable an earlier atom binds
}

// key is an indexed position of a step.
type key struct {
	x  int32 // its variable
	ix *posIndex
}

// enum is the depth-first enumeration of one disjunct's fact choices.
type enum struct {
	b      *builder
	steps  []step
	atoms  [][]int32 // atoms[i]: the variable at each position of atom i
	vars   int       // the disjunct's variables
	limit  int       // refuse at cylinder limit+1
	pins   [][]int32 // pins[i]: variable → the constant the first i facts pin it to, or −1
	chosen [][]int32 // chosen[i]: the fact chosen for atom i
}

// addDisjunct appends the cylinders of q in the odometer's order. It walks
// the atoms in syntactic order and, on every level, the candidate facts
// in ascending order, so a choice comes before every choice that is
// lexicographically larger. A partial choice keeps the constants its
// ground positions pin, and an atom position whose variable an earlier
// atom binds is indexed: a pinned choice extends only with the facts of
// the pin's bucket merged with the facts holding a null there. That
// prunes only choices whose pins conflict, which unify would reject;
// unify still judges every full choice.
func (b *builder) addDisjunct(q *cq.BCQ, limit int) error {
	if !eligible(b.db, q) {
		return nil
	}
	m := len(q.Atoms)
	e := &enum{b: b, steps: make([]step, m), atoms: make([][]int32, m), limit: limit, chosen: make([][]int32, m)}
	varIdx := make(map[string]int32)
	for i, a := range q.Atoms {
		st := &e.steps[i]
		st.facts = b.facts[a.Rel]
		e.atoms[i] = make([]int32, len(a.Vars))
		bound := len(varIdx)
		for p, v := range a.Vars {
			x, ok := varIdx[v]
			if !ok {
				x = int32(len(varIdx))
				varIdx[v] = x
			}
			e.atoms[i][p] = x
			if x < int32(bound) {
				st.keys = append(st.keys, key{x: x, ix: newPosIndex(st.facts, p)})
			}
		}
	}
	e.vars = len(varIdx)
	pins := make([]int32, (m+1)*e.vars)
	e.pins = make([][]int32, m+1)
	for i := range e.pins {
		e.pins[i] = pins[i*e.vars : (i+1)*e.vars]
	}
	for x := range e.pins[0] {
		e.pins[0][x] = -1
	}
	return e.visit(0)
}

// visit extends the choice of the first i facts in every way, in
// ascending fact order, and unifies each full choice.
func (e *enum) visit(i int) error {
	if i == len(e.steps) {
		cyl := e.b.unify(e.vars, e.atoms, e.chosen)
		if cyl == nil {
			return nil
		}
		if len(e.b.set.Cylinders) >= e.limit {
			return fmt.Errorf("%w: the query has more than %d", ErrTooManyCylinders, e.limit)
		}
		e.b.set.Cylinders = append(e.b.set.Cylinders, cyl)
		return nil
	}
	st := &e.steps[i]
	// Take the candidates from the smallest index bucket a pin selects,
	// merged with that position's wildcards; without a pin, every fact.
	var bucket []keyed
	var wild []int32
	best := len(st.facts)
	for _, k := range st.keys {
		if c := e.pins[i][k.x]; c >= 0 {
			if bk := k.ix.bucket(c); len(bk)+len(k.ix.wild) < best {
				bucket, wild, best = bk, k.ix.wild, len(bk)+len(k.ix.wild)
			}
		}
	}
	if best == len(st.facts) {
		for f := range st.facts {
			if err := e.extend(i, int32(f)); err != nil {
				return err
			}
		}
		return nil
	}
	for len(bucket) > 0 || len(wild) > 0 {
		var f int32
		if len(wild) == 0 || len(bucket) > 0 && bucket[0].f < wild[0] {
			f, bucket = bucket[0].f, bucket[1:]
		} else {
			f, wild = wild[0], wild[1:]
		}
		if err := e.extend(i, f); err != nil {
			return err
		}
	}
	return nil
}

// extend chooses fact f for atom i and visits the choices it starts,
// unless a ground position of f pins a variable to a second constant.
func (e *enum) extend(i int, f int32) error {
	fact, pins := e.steps[i].facts[f], e.pins[i+1]
	copy(pins, e.pins[i])
	for p, x := range e.atoms[i] {
		if a := fact[p]; a >= 0 {
			if pins[x] >= 0 && pins[x] != a {
				return nil
			}
			pins[x] = a
		}
	}
	e.chosen[i] = fact
	return e.visit(i + 1)
}

// union merges the classes of items x and y, carrying their pins; it
// reports false when the two are pinned to different constants.
func (b *builder) union(x, y int32) bool {
	rx, ry := find(b.parent, x), find(b.parent, y)
	if rx == ry {
		return true
	}
	if px := b.pin[rx]; px >= 0 {
		if py := b.pin[ry]; py >= 0 && py != px {
			return false
		}
		b.pin[ry] = px
	}
	b.parent[rx] = ry
	return true
}

// nullItem returns the item of candidate c in the current choice, adding
// it on its first occurrence.
func (b *builder) nullItem(vars int, c int32) int32 {
	for t, d := range b.items {
		if d == c {
			return int32(vars + t)
		}
	}
	it := int32(len(b.parent))
	b.items = append(b.items, c)
	b.parent = append(b.parent, it)
	b.pin = append(b.pin, -1)
	return it
}

// unify builds the cylinder of one choice of facts (chosen[i] matches atom
// i), or returns nil if its constraints are unsatisfiable.
func (b *builder) unify(vars int, atomVars [][]int32, chosen [][]int32) *Cylinder {
	b.parent, b.pin, b.items = b.parent[:0], b.pin[:0], b.items[:0]
	for x := 0; x < vars; x++ {
		b.parent = append(b.parent, int32(x))
		b.pin = append(b.pin, -1)
	}
	for i, f := range chosen {
		for p, x := range atomVars[i] {
			a := f[p]
			if a < 0 {
				if !b.union(x, b.nullItem(vars, -a-1)) {
					return nil
				}
				continue
			}
			r := find(b.parent, x)
			if prev := b.pin[r]; prev >= 0 && prev != a {
				return nil
			}
			b.pin[r] = a
		}
	}
	// Group the nulls into classes, in candidate order: each class lists
	// its nulls ascending, and classes come in the order of their first
	// null. Classes of variables alone are constant checks the pins have
	// already passed. A class's allowed list is its first null's domain,
	// intersected with the others' by merging.
	// A choice holds few nulls, so they are sorted by insertion.
	b.order = b.order[:0]
	for t, c := range b.items {
		j := len(b.order)
		b.order = append(b.order, int32(vars+t))
		for ; j > 0 && b.items[int(b.order[j-1])-vars] > c; j-- {
			b.order[j] = b.order[j-1]
		}
		b.order[j] = int32(vars + t)
	}
	b.classAt = b.classAt[:0]
	for range b.parent {
		b.classAt = append(b.classAt, -1)
	}
	b.allowed, b.buf = b.allowed[:0], b.buf[:0]
	for _, it := range b.order {
		dom := b.candDom[b.items[int(it)-vars]]
		r := find(b.parent, it)
		ci := b.classAt[r]
		if ci < 0 {
			b.classAt[r] = int32(len(b.allowed))
			b.allowed = append(b.allowed, dom)
			continue
		}
		start := len(b.buf)
		b.buf = intersect(b.buf, b.allowed[ci], dom)
		b.allowed[ci] = b.buf[start:]
	}
	for r, ci := range b.classAt {
		if ci < 0 {
			continue
		}
		if k := b.pin[r]; k >= 0 {
			if _, ok := slices.BinarySearch(b.allowed[ci], k); !ok {
				return nil
			}
			start := len(b.buf)
			b.buf = append(b.buf, k)
			b.allowed[ci] = b.buf[start:]
		}
		if len(b.allowed[ci]) == 0 {
			return nil
		}
	}
	// Satisfiable: materialize the classes. Their slots hold candidate
	// indices until finish renumbers them. A class that allows its one
	// null's whole domain shares the candidate's list.
	cyl := &Cylinder{Classes: make([]Class, len(b.allowed)), set: b.set}
	for _, it := range b.order {
		cand := b.items[int(it)-vars]
		c := &cyl.Classes[b.classAt[find(b.parent, it)]]
		c.slots = append(c.slots, cand)
		c.Nulls = append(c.Nulls, b.cands[cand])
	}
	for i := range cyl.Classes {
		c := &cyl.Classes[i]
		c.allowed = b.allowed[i]
		if dom := b.candDom[c.slots[0]]; len(c.slots) > 1 || len(c.allowed) != len(dom) {
			c.allowed = slices.Clone(c.allowed)
		} else {
			c.allowed = dom
		}
		c.Allowed = make([]string, len(c.allowed))
		for a, k := range c.allowed {
			c.Allowed[a] = b.set.consts[k]
		}
	}
	return cyl
}

// intersect appends the members common to the ascending lists x and y to
// dst.
func intersect(dst, x, y []int32) []int32 {
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			x = x[1:]
		case x[0] > y[0]:
			y = y[1:]
		default:
			dst = append(dst, x[0])
			x, y = x[1:], y[1:]
		}
	}
	return dst
}

// finish renumbers the constrained candidates as slots and derives the
// free factor.
func (b *builder) finish() *Set {
	s := b.set
	used := make([]bool, len(b.cands))
	for _, cyl := range s.Cylinders {
		for _, c := range cyl.Classes {
			for _, cand := range c.slots {
				used[cand] = true
			}
		}
	}
	slotOf := make([]int32, len(b.cands))
	for cand, n := range b.cands {
		if !used[cand] {
			continue
		}
		slotOf[cand] = int32(len(s.nulls))
		s.nulls = append(s.nulls, n)
		s.doms = append(s.doms, b.candDom[cand])
	}
	for _, cyl := range s.Cylinders {
		for _, c := range cyl.Classes {
			for i, cand := range c.slots {
				c.slots[i] = slotOf[cand]
			}
		}
	}

	// The free factor: every null of the database outside the slots.
	free := newProduct()
	slot := 0
	for _, n := range b.db.Nulls() {
		if slot < len(s.nulls) && s.nulls[slot] == n {
			slot++
			continue
		}
		free.mul(uint64(len(b.db.Domain(n))))
	}
	s.free = free.int()
	return s
}

// weigh derives, once, the weights and their running sums: a cylinder's
// weight is free × Π |allowed| × Π |dom| over the slots it leaves
// uncovered, and SampleIndex draws from the running sums of the weights
// divided by free.
func (s *Set) weigh() {
	s.weighed.Do(func() {
		covered := make([]int, len(s.nulls))
		rels := make([]*big.Int, len(s.Cylinders))
		sum := new(big.Int)
		for j, cyl := range s.Cylinders {
			rel := newProduct()
			for _, c := range cyl.Classes {
				rel.mul(uint64(len(c.allowed)))
				for _, sl := range c.slots {
					covered[sl] = j + 1
				}
			}
			for sl, dom := range s.doms {
				if covered[sl] != j+1 {
					rel.mul(uint64(len(dom)))
				}
			}
			rels[j] = rel.int()
			sum.Add(sum, rels[j])
			cyl.weight = new(big.Int).Mul(rels[j], s.free)
		}
		s.total = new(big.Int).Mul(sum, s.free)
		// Word-sized draws reproduce big.Int.Rand only where a big.Word
		// has 64 bits.
		if bits.UintSize == 64 && sum.IsUint64() {
			s.cumWords = make([]uint64, len(rels))
			var acc uint64
			for j, r := range rels {
				acc += r.Uint64()
				s.cumWords[j] = acc
			}
			return
		}
		s.cum = make([]*big.Int, len(rels))
		acc := new(big.Int)
		for j, r := range rels {
			s.cum[j] = new(big.Int).Set(acc.Add(acc, r))
		}
	})
}

// TotalWeight returns Σ_j weight(C_j) (with multiplicity; cylinders
// overlap, so this is an upper bound on the union size).
func (s *Set) TotalWeight() *big.Int {
	s.weigh()
	return new(big.Int).Set(s.total)
}

// product multiplies machine-word factors: in a uint64 while the product
// fits, folding the word into a big.Int whenever a factor overflows it.
type product struct {
	word uint64
	big  *big.Int // the factors folded so far; nil while none are
}

func newProduct() product { return product{word: 1} }

func (p *product) mul(x uint64) {
	hi, lo := bits.Mul64(p.word, x)
	p.word = lo
	if hi != 0 {
		p.fold(hi)
	}
}

// fold moves the product hi·2⁶⁴ + word into big and starts the word over.
func (p *product) fold(hi uint64) {
	z := new(big.Int).SetUint64(hi)
	z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(p.word))
	if p.big != nil {
		z.Mul(z, p.big)
	}
	p.big, p.word = z, 1
}

func (p *product) int() *big.Int {
	z := new(big.Int).SetUint64(p.word)
	if p.big != nil {
		z.Mul(z, p.big)
	}
	return z
}
