package sweep

import (
	"math/big"

	"github.com/incompletedb/incompletedb/internal/core"
)

// Patch applies one database mutation record to the compiled engine in
// place, avoiding a recompile. db is the database the delta was applied to
// (i.e. already mutated). It reports whether the patch succeeded; false
// means the delta cannot be maintained incrementally (the engine's interned
// structures would need renumbering) and the caller must recompile.
//
// The arena is append-only: an added fact is appended even when its
// relation is irrelevant to the query (mirroring Compile, which puts every
// fact in the arena), and a removed fact is tombstoned rather than spliced
// out so that fact indices — and every digit's slots — stay stable. Dead
// facts are stripped from the per-relation evaluation lists and from their
// nulls' slot lists at patch time, so the hot sweep loops never test a
// tombstone.
//
// Patch must not run concurrently with any cursor use, and it invalidates
// all existing cursors of the engine (digit layout and arena size change);
// create fresh cursors after patching.
func (e *Engine) Patch(db *core.Database, d core.Delta) bool {
	ok := e.patchOne(db, d)
	if ok {
		// The bitset plan indexes live-fact ordinals, digit slot lists and
		// the interned value range, all of which a patch can change;
		// recompile it against the patched arena. The ready depths and
		// the precomputed slot hashes depend on the same geometry.
		e.buildReady()
		e.buildBitsets()
		e.buildSlotHashes()
	}
	return ok
}

func (e *Engine) patchOne(db *core.Database, d core.Delta) bool {
	switch d.Op {
	case core.DeltaAddFact:
		return e.patchAddFact(db, d.Fact)
	case core.DeltaRemoveFact:
		return e.patchRemoveFact(db, d.Fact)
	case core.DeltaExtendDomain:
		return e.patchExtendDomain(db, d.Null, d.Added)
	case core.DeltaExtendUniform:
		return e.patchExtendUniform(db, d.Added)
	default:
		// DeltaSetDomain (wholesale replacement) and unknown ops: rebuild.
		return false
	}
}

func (e *Engine) patchAddFact(db *core.Database, f core.Fact) bool {
	rid, known := e.rels.Lookup(f.Rel)
	if !known && e.queryRels != nil && e.queryRels[f.Rel] {
		// The query mentions a relation the database did not have at
		// compile time: its atoms were compiled to statically-unsatisfiable
		// placeholders, which the new fact invalidates.
		return false
	}
	relevant := e.prog.opaque != nil // new relations are relevant only to opaque queries
	if known {
		relevant = e.relevant[rid]
	}
	// Pre-scan the arguments: every rebuild condition must be detected
	// before the engine is mutated.
	for _, n := range f.Nulls() {
		if e.prunedNulls[n] {
			if relevant {
				// Promotion: a pruned null's slots were dropped at compile
				// time, so it cannot become an enumerated digit in place.
				return false
			}
			continue
		}
		if e.digitOf(n) < 0 && db.Domain(n) == nil {
			return false // new null without a domain; recompile surfaces the error
		}
	}

	if !known {
		rid = e.rels.Intern(f.Rel)
		e.relArity = append(e.relArity, int32(len(f.Args)))
		e.relFacts = append(e.relFacts, nil)
		e.relevant = append(e.relevant, relevant)
	}
	fi := int32(len(e.factRel))
	e.factRel = append(e.factRel, rid)
	e.relFacts[rid] = append(e.relFacts[rid], fi)
	e.factIdx[f.Key()] = fi
	for p, a := range f.Args {
		if !a.IsNull() {
			e.tmplArgs = append(e.tmplArgs, e.values.Intern(a.Constant()))
			continue
		}
		e.tmplArgs = append(e.tmplArgs, 0)
		n := a.NullID()
		if e.prunedNulls[n] {
			continue // pruned nulls' slots are dropped, as in Compile
		}
		if k := e.digitOf(n); k >= 0 {
			dg := &e.digits[k]
			dg.slots = append(dg.slots, slot{fact: fi, pos: int32(p)})
			if relevant {
				dg.dirty = true
			}
			continue
		}
		// A null new to the engine: prune it or give it a digit.
		dom := db.Domain(n)
		if e.prune && !relevant {
			e.prunedNulls[n] = true
			continue
		}
		dg := digit{
			null:  n,
			dom:   make([]uint32, len(dom)),
			slots: []slot{{fact: fi, pos: int32(p)}},
			dirty: relevant,
		}
		for i, c := range dom {
			dg.dom[i] = e.values.Intern(c)
		}
		e.insertDigit(dg)
	}
	e.factOff = append(e.factOff, int32(len(e.tmplArgs)))
	if e.dead != nil {
		e.dead = append(e.dead, false)
	}
	e.recomputeSizes(db)
	return true
}

func (e *Engine) patchRemoveFact(db *core.Database, f core.Fact) bool {
	fi, ok := e.factIdx[f.Key()]
	if !ok {
		return false // engine out of sync with the delta stream
	}
	if e.dead == nil {
		e.dead = make([]bool, len(e.factRel))
	}
	e.dead[fi] = true
	delete(e.factIdx, f.Key())

	rid := e.factRel[fi]
	rf := e.relFacts[rid]
	for j, x := range rf {
		if x == fi {
			e.relFacts[rid] = append(rf[:j], rf[j+1:]...)
			break
		}
	}

	for _, n := range f.Nulls() {
		if e.prunedNulls[n] {
			if !db.HasNull(n) {
				delete(e.prunedNulls, n)
			}
			continue
		}
		k := e.digitOf(n)
		if k < 0 {
			continue
		}
		dg := &e.digits[k]
		live := dg.slots[:0]
		for _, s := range dg.slots {
			if s.fact != fi {
				live = append(live, s)
			}
		}
		dg.slots = live
		if !db.HasNull(n) {
			e.digits = append(e.digits[:k], e.digits[k+1:]...)
			continue
		}
		dirty := false
		for _, s := range dg.slots {
			if e.relevant[e.factRel[s.fact]] {
				dirty = true
				break
			}
		}
		if e.prune && !dirty {
			// Demote: the null no longer occurs in any relation the query
			// mentions, so a fresh compile would prune it. Its remaining
			// slots all live in irrelevant relations and are never read.
			e.digits = append(e.digits[:k], e.digits[k+1:]...)
			e.prunedNulls[n] = true
			continue
		}
		dg.dirty = dirty
	}
	e.recomputeSizes(db)
	return true
}

func (e *Engine) patchExtendDomain(db *core.Database, n core.NullID, added []string) bool {
	if k := e.digitOf(n); k >= 0 {
		dg := &e.digits[k]
		// Deltas are applied against the already-final database, so a digit
		// created by an earlier add in the same batch already carries the
		// final domain; skip values it has (extension keeps domain order).
		for _, v := range added {
			if id := e.values.Intern(v); !containsID(dg.dom, id) {
				dg.dom = append(dg.dom, id)
			}
		}
		e.recomputeSizes(db)
	} else if e.prunedNulls[n] {
		e.recomputeSizes(db) // the pruned null's |dom| term grew
	}
	// A null the engine has never seen: nothing to maintain.
	return true
}

func (e *Engine) patchExtendUniform(db *core.Database, added []string) bool {
	for _, v := range added {
		id := e.values.Intern(v)
		for k := range e.digits {
			if dg := &e.digits[k]; !containsID(dg.dom, id) {
				dg.dom = append(dg.dom, id)
			}
		}
	}
	e.recomputeSizes(db)
	return true
}

func containsID(dom []uint32, id uint32) bool {
	for _, d := range dom {
		if d == id {
			return true
		}
	}
	return false
}

// digitOf returns the index of null n's digit, or -1. Digits are kept
// sorted by null ID.
func (e *Engine) digitOf(n core.NullID) int {
	lo, hi := 0, len(e.digits)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.digits[mid].null < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.digits) && e.digits[lo].null == n {
		return lo
	}
	return -1
}

// insertDigit inserts dg keeping e.digits sorted by null ID.
func (e *Engine) insertDigit(dg digit) {
	lo, hi := 0, len(e.digits)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.digits[mid].null < dg.null {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.digits = append(e.digits, digit{})
	copy(e.digits[lo+1:], e.digits[lo:])
	e.digits[lo] = dg
}

// recomputeSizes re-derives size, multiplier, total and the pruned count
// from the current digits and pruned-null set.
func (e *Engine) recomputeSizes(db *core.Database) {
	e.size = big.NewInt(1)
	for i := range e.digits {
		e.size.Mul(e.size, big.NewInt(int64(len(e.digits[i].dom))))
	}
	e.multiplier = big.NewInt(1)
	for n := range e.prunedNulls {
		e.multiplier.Mul(e.multiplier, big.NewInt(int64(len(db.Domain(n)))))
	}
	e.pruned = len(e.prunedNulls)
	e.total = new(big.Int).Mul(e.size, e.multiplier)
}
