package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"slices"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
)

// This file is the write half of a PreparedDB: the mutation surface
// (AddFact/RemoveFact/ExtendDomain), the version sync that brings the
// session up to the database's version, and the factor memo that lets a
// recount after a write confined to one component re-sweep only that
// component. A cached plan serves only the version it was built at, so
// every sync that advances the version empties the plan cache. The
// factor memo is keyed by the content each entry was computed from, so a
// sync leaves it alone: an entry whose content changed is never found
// again and ages out of the bounded LRU.
//
// The locking discipline: every read entry point holds p.mu.RLock for its
// whole execution, and rlock() first brings the session up to date with
// the database's version under the write lock. Mutations through the
// session methods sync eagerly; mutating the database directly is also
// supported — the next call on the session notices the new version.

// AddFact adds rel(args...) to the prepared database and updates the
// session: every cached plan is dropped and rebuilt on next use, while
// the factorized components that do not read rel are still served from
// the factor memo. In a non-uniform database every null argument must
// already have a domain (set one with ExtendDomain first); a duplicate
// fact is a no-op.
func (p *PreparedDB) AddFact(rel string, args ...core.Value) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.db.Uniform() {
		for _, a := range args {
			if a.IsNull() && p.db.Domain(a.NullID()) == nil {
				return fmt.Errorf("solver: null %s has no domain; call ExtendDomain before adding the fact", a.NullID())
			}
		}
	}
	if err := p.db.AddFact(rel, args...); err != nil {
		return err
	}
	p.syncLocked()
	return nil
}

// RemoveFact removes rel(args...) from the prepared database and updates
// the session like AddFact. It reports whether the fact was present.
func (p *PreparedDB) RemoveFact(rel string, args ...core.Value) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	removed := p.db.RemoveFact(rel, args...)
	p.syncLocked()
	return removed
}

// ExtendDomain appends values to the domain of null n (creating the
// domain if n had none) and updates the session like AddFact; the factor
// memo still serves the components whose facts do not hold n.
func (p *PreparedDB) ExtendDomain(n core.NullID, values ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.db.ExtendDomain(n, values...); err != nil {
		return err
	}
	p.syncLocked()
	return nil
}

// ExtendUniformDomain appends values to the shared domain of a uniform
// prepared database and updates the session; the extension reaches every
// null, so no factor memo entry matches afterwards.
func (p *PreparedDB) ExtendUniformDomain(values ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.db.ExtendUniformDomain(values...); err != nil {
		return err
	}
	p.syncLocked()
	return nil
}

// Epoch returns the database version the session has applied — the same
// monotone counter core.Database.Version reports, echoed in
// Result.Stats.Epoch.
func (p *PreparedDB) Epoch() uint64 {
	p.rlock()
	defer p.mu.RUnlock()
	return p.appliedVersion
}

// rlock acquires the session read lock with the session synced to the
// database's current version: callers between rlock and RUnlock see a
// consistent (canonDB, digest, total, plans, memo) snapshot no mutation can
// change underneath them.
func (p *PreparedDB) rlock() {
	for {
		p.mu.RLock()
		if p.db.Version() == p.appliedVersion {
			return
		}
		p.mu.RUnlock()
		p.mu.Lock()
		p.syncLocked()
		p.mu.Unlock()
	}
}

// syncLocked brings the session up to the database's version: it counts
// the mutations, empties the plan cache and recomputes the session
// geometry. The factor memo needs nothing: its keys name the content
// each entry was computed from (factorKey), so a changed component
// simply misses. Callers hold the write lock.
func (p *PreparedDB) syncLocked() {
	ver := p.db.Version()
	if ver == p.appliedVersion {
		return
	}
	p.s.mutations.Add(int64(ver - p.appliedVersion))
	p.s.plansInvalidated.Add(int64(p.plans.purge()))
	p.refreshGeometryLocked()
}

// refreshGeometryLocked re-derives the session's canonical form, its
// digest and the valuation-space size from the (already mutated)
// database and marks its version applied.
func (p *PreparedDB) refreshGeometryLocked() {
	p.canonDB = fingerprint.Database(p.db)
	p.digest = fingerprint.DigestOf(p.canonDB)
	if total, err := p.db.NumValuations(); err == nil {
		p.total = total
	} else {
		// The database was mutated into an invalid state (e.g. a null
		// without a domain added directly, bypassing the session methods).
		// Counting calls will surface the validation error; the memo
		// cannot scale ratios against an undefined total and is skipped
		// while it is zero.
		p.total = big.NewInt(0)
	}
	p.appliedVersion = p.db.Version()
}

// factorMemo caches, per session, the counts of the independent
// components of factorized plans as fractions count/total of the
// valuation-space total. A component's fraction depends only on the
// facts of its query's relations and the domains of their nulls, so an
// entry keyed by exactly that content (factorKey) is valid whenever its
// key is found: a write elsewhere, or one that is later undone, leaves
// it usable, and a write that changes the content makes a new key. The
// count at the current total is ratio × total, exactly.
type factorMemo = lru[*big.Rat]

// factorMemoSize bounds a session's factor memo; the least recently used
// fraction is dropped and simply recomputed if asked for again. It is a
// constant, independent of the result cache's size, so a session whose
// result cache is disabled still recounts incrementally.
const factorMemoSize = 1024

func newFactorMemo() *factorMemo { return newLRU[*big.Rat](factorMemoSize) }

// factorRecorder adapts the session memo to count.FactorMemo for one
// call, counting the hits that end up in Result.Stats.FactorsReused. Its
// keys carry the call's planning-options suffix (see Solver.planKey).
// The scratch buffers make a key cost one allocation-light pass; a
// recorder serves one call, and execFactor consults it sequentially.
type factorRecorder struct {
	p      *PreparedDB
	suffix string
	hits   int

	buf   []byte
	rels  []string
	nulls []core.NullID
}

// factorKey returns the factor memo key of component q under kind: the
// SHA-256 of a length-prefixed encoding of
//
//   - the kind and canonical query (planCacheKey) and the call's
//     planning suffix;
//   - whether the table is a Codd table: the flag routes a component
//     (Theorem 3.7), and so decides whether the guard admits it;
//   - the facts of each relation of sig(q), in sorted relation order and
//     FactsOf order (a reordered table is only a miss);
//   - the shared domain of a uniform database, or else the domain of
//     every null those facts hold.
//
// ok is false for an opaque query, whose relations are unknown: it is
// never memoized.
func (r *factorRecorder) factorKey(q cq.Query, kind classify.CountingKind) (key string, ok bool) {
	sig, ok := cq.Signature(q)
	if !ok {
		return "", false
	}
	db := r.p.db
	rels := r.rels[:0]
	for rel := range sig {
		rels = append(rels, rel)
	}
	slices.Sort(rels)
	b := appendField(r.buf[:0], planCacheKey(fingerprint.Query(q), kind))
	b = appendField(b, r.suffix)
	if db.IsCodd() {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	nulls := r.nulls[:0]
	for _, rel := range rels {
		facts := db.FactsOf(rel)
		b = appendField(b, rel)
		b = binary.AppendUvarint(b, uint64(db.Arity(rel)))
		b = binary.AppendUvarint(b, uint64(len(facts)))
		for _, f := range facts {
			for _, a := range f.Args {
				if a.IsNull() {
					b = append(b, 1)
					b = binary.AppendUvarint(b, uint64(a.NullID()))
					nulls = append(nulls, a.NullID())
				} else {
					b = append(b, 0)
					b = appendField(b, a.Constant())
				}
			}
		}
	}
	if db.Uniform() {
		b = append(b, 'u')
		b = appendDomain(b, db.UniformDomain())
	} else {
		b = append(b, 'n')
		slices.Sort(nulls)
		nulls = slices.Compact(nulls)
		for _, n := range nulls {
			b = binary.AppendUvarint(b, uint64(n))
			b = appendDomain(b, db.Domain(n))
		}
	}
	sum := sha256.Sum256(b)
	r.buf, r.rels, r.nulls = b, rels, nulls
	return string(sum[:]), true
}

// appendField appends s with its length in front.
func appendField(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendDomain appends a domain: its size, then each value as a field.
func appendDomain(b []byte, dom []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(dom)))
	for _, v := range dom {
		b = appendField(b, v)
	}
	return b
}

// LookupFactor implements count.FactorMemo: it scales the memoized
// fraction back to a count at the current total. The division is exact
// for a valid entry; a remainder would mean the key missed a dependency,
// so the lookup then misses and the component is recomputed. With no
// valuations there is no fraction to keep, and the key is empty.
func (r *factorRecorder) LookupFactor(q cq.Query, kind classify.CountingKind) (*big.Int, string, bool) {
	total := r.p.total
	if total.Sign() == 0 {
		return nil, "", false
	}
	key, ok := r.factorKey(q, kind)
	if !ok {
		return nil, "", false
	}
	ratio, ok := r.p.factors.get(key)
	if !ok {
		return nil, key, false
	}
	num := new(big.Int).Mul(ratio.Num(), total)
	quo, rem := num.QuoRem(num, ratio.Denom(), new(big.Int))
	if rem.Sign() != 0 {
		return nil, key, false
	}
	r.hits++
	r.p.s.factorsReused.Add(1)
	return quo, key, true
}

// StoreFactor implements count.FactorMemo: it memoizes a freshly
// computed component count as a fraction of the current total, under the
// key LookupFactor returned for it. That key is empty for an opaque query
// or a zero total, and an empty key stores nothing.
func (r *factorRecorder) StoreFactor(key string, count *big.Int) {
	if key != "" {
		r.p.factors.add(key, new(big.Rat).SetFrac(count, r.p.total))
	}
}
