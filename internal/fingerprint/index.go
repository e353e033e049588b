package fingerprint

import (
	"crypto/sha256"
	"slices"

	"github.com/incompletedb/incompletedb/internal/core"
)

// An Index keeps the digest of one database's canonical form across
// writes to it, one null-connected component at a time: each null's
// component, the sorted digests of all components, and the sorted lines
// of the ground facts with their digest. The caller tells it what each
// write did, and it recomputes only what the write touched: a ground
// line, the component an added fact merges, the pieces a removed fact's
// component splits into, or the component of a null whose domain grew.
// Each component digest comes from the routine DatabaseDigest runs on
// every component, so Digest always equals DatabaseDigest of the
// database. The header is read at each Digest, so a uniform database's
// shared domain may grow without a call. A write the index is not told
// about leaves it stale; build a new one.
type Index struct {
	db      *core.Database
	of      map[core.NullID]*component
	digests []Digest // sorted by compareDigests

	ground       []string // sorted
	groundDigest Digest
}

// component is one null-connected component of a database: its nulls,
// sorted, the facts that hold them, and the digest of its canonical form.
type component struct {
	nulls  []core.NullID
	facts  []core.Fact
	digest Digest
}

// NewIndex indexes every component and ground fact of db.
func NewIndex(db *core.Database) *Index {
	x := &Index{db: db, of: make(map[core.NullID]*component, len(db.Nulls()))}
	x.split(db.Nulls(), db.Facts())
	for _, f := range db.Facts() {
		if f.IsGround() {
			x.ground = append(x.ground, groundLine(f))
		}
	}
	slices.Sort(x.ground)
	x.rehashGround()
	return x
}

// Digest returns the digest of the database's canonical form.
func (x *Index) Digest() Digest {
	r := refiners.Get().(*refiner)
	defer r.release()
	return r.combine(x.db, x.groundDigest, x.digests)
}

// AddFact accounts for f, just added to the database: a ground line, or
// the component that merges f with the components of its nulls. It
// reports whether f brought nulls new to the table.
func (x *Index) AddFact(f core.Fact) (newNulls bool) {
	if f.IsGround() {
		line := groundLine(f)
		i, _ := slices.BinarySearch(x.ground, line)
		x.ground = slices.Insert(x.ground, i, line)
		x.rehashGround()
		return false
	}
	var merged []*component
	var nulls []core.NullID
	facts := []core.Fact{f}
	for _, a := range f.Args {
		if !a.IsNull() {
			continue
		}
		c := x.of[a.NullID()]
		switch {
		case c == nil:
			newNulls = true
			nulls = append(nulls, a.NullID())
		case !slices.Contains(merged, c):
			merged = append(merged, c)
			nulls = append(nulls, c.nulls...)
			facts = append(facts, c.facts...)
		}
	}
	for _, c := range merged {
		x.drop(c)
	}
	slices.Sort(nulls)
	x.split(slices.Compact(nulls), facts)
	return newNulls
}

// RemoveFact accounts for f, just removed from the database: a ground
// line, or the component that held f, split into the pieces its other
// facts still connect. It reports whether some null of f left the
// table.
func (x *Index) RemoveFact(f core.Fact) (goneNulls bool) {
	if f.IsGround() {
		if i, ok := slices.BinarySearch(x.ground, groundLine(f)); ok {
			x.ground = slices.Delete(x.ground, i, i+1)
		}
		x.rehashGround()
		return false
	}
	var c *component
	for _, a := range f.Args {
		if a.IsNull() {
			c = x.of[a.NullID()]
			break
		}
	}
	x.drop(c)
	facts := slices.DeleteFunc(c.facts, func(g core.Fact) bool {
		return g.Rel == f.Rel && slices.Equal(g.Args, f.Args)
	})
	x.split(c.nulls, facts)
	for _, n := range c.nulls {
		if x.of[n] == nil {
			goneNulls = true
		}
	}
	return goneNulls
}

// Touch recomputes the component of null n after its domain changed. It
// reports whether n is in the table, where its domain counts.
func (x *Index) Touch(n core.NullID) bool {
	c := x.of[n]
	if c == nil {
		return false
	}
	x.drop(c)
	x.split(c.nulls, c.facts)
	return true
}

// split records the components of facts over nulls (sorted): each null
// of a component points at it, and its digest joins the sorted list. A
// null of nulls that no fact holds is forgotten.
func (x *Index) split(nulls []core.NullID, facts []core.Fact) {
	for _, n := range nulls {
		delete(x.of, n)
	}
	r := refiners.Get().(*refiner)
	defer r.release()
	k := r.load(x.db, nulls, facts)
	for c := range k {
		elems, tuples := r.members(c)
		if len(tuples) == 0 {
			continue
		}
		comp := &component{
			nulls:  make([]core.NullID, len(elems)),
			facts:  make([]core.Fact, len(tuples)),
			digest: r.digestComponent(x.db, facts, c),
		}
		for i, e := range elems {
			comp.nulls[i] = nulls[e]
			x.of[nulls[e]] = comp
		}
		for i, t := range tuples {
			comp.facts[i] = facts[r.ids[t]]
		}
		i, _ := slices.BinarySearchFunc(x.digests, comp.digest, compareDigests)
		x.digests = slices.Insert(x.digests, i, comp.digest)
	}
}

// drop removes component c's digest from the sorted list.
func (x *Index) drop(c *component) {
	if i, ok := slices.BinarySearchFunc(x.digests, c.digest, compareDigests); ok {
		x.digests = slices.Delete(x.digests, i, i+1)
	}
}

// rehashGround recomputes the digest of the ground lines, as
// DatabaseDigest hashes them.
func (x *Index) rehashGround() {
	r := refiners.Get().(*refiner)
	defer r.release()
	b := r.buf[:0]
	for _, l := range x.ground {
		b = appendGroundLine(b, l)
	}
	r.buf = b
	x.groundDigest = sha256.Sum256(b)
}

// groundLine renders a ground fact as its line of the canonical form.
func groundLine(f core.Fact) string {
	return string(appendFact(nil, f, nil, nil))
}
