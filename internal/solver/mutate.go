package solver

import (
	"fmt"
	"math/big"
	"sync"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
)

// This file is the delta-maintenance half of a PreparedDB: the mutation
// surface (AddFact/RemoveFact/ExtendDomain), the version-sync machinery
// that brings the session up to the database's version, and the factor
// memo that lets a recount after a single-component delta re-sweep only
// that component. A cached plan serves only the version it was built at,
// so every sync that advances the version empties the plan cache; the
// factor memo replays the deltas and drops exactly the components they
// touched.
//
// The locking discipline: every read entry point holds p.mu.RLock for its
// whole execution, and rlock() first brings the session up to date with
// the database's version under the write lock. Mutations through the
// session methods sync eagerly; mutating the database directly is also
// supported — the next call on the session replays the missed deltas.

// AddFact adds rel(args...) to the prepared database and updates the
// session: every cached plan is dropped and rebuilt on next use, while
// the factorized components that do not touch rel are still served from
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
// memo keeps the components whose facts do not hold n.
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
// null, so the factor memo is emptied too.
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

// syncLocked brings the session up to the database's version: it empties
// the plan cache, replays the deltas it has not applied into the factor
// memo, and recomputes the session geometry. Callers hold the write lock.
func (p *PreparedDB) syncLocked() {
	ver := p.db.Version()
	if ver == p.appliedVersion {
		return
	}
	p.s.mutations.Add(int64(ver - p.appliedVersion))
	p.s.plansInvalidated.Add(int64(p.plans.purge()))
	deltas, ok := p.db.DeltasSince(p.appliedVersion)
	// The factor memo is emptied wholesale when the deltas are gone (the
	// log was trimmed past our version, or the version moved backwards),
	// or when the batch flipped the database's Codd-ness: a property of
	// the whole fact set that drives plan selection (Theorem 3.7), checked
	// once per batch against the final state.
	if !ok || p.db.IsCodd() != p.wasCodd {
		p.factors.dropAll()
	} else {
		for _, d := range deltas {
			p.factors.apply(d)
		}
	}
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
		// Counting calls will surface the validation error; the memo cannot
		// scale ratios against an undefined total, so it is cleared.
		p.total = big.NewInt(0)
		p.factors.dropAll()
	}
	p.appliedVersion = p.db.Version()
	p.wasCodd = p.db.IsCodd()
}

// factorMemo caches, per session, the counts of the independent
// components of factorized plans as fractions of the valuation-space
// total. Storing the *ratio* count/total rather than the count makes an
// entry survive deltas that only rescale the space (a fresh null or a
// domain extension elsewhere): the component's count at the current epoch
// is ratio × current total, exactly.
type factorMemo struct {
	mu      sync.Mutex
	entries map[string]*factorEntry
}

type factorEntry struct {
	// ratio is count / total-valuations at store time.
	ratio *big.Rat
	// sig is the component query's relation signature; a fact delta on any
	// of these relations drops the entry.
	sig map[string]bool
	// nulls are the nulls occurring in facts of sig relations at store
	// time; extending one of their domains drops the entry.
	nulls map[core.NullID]bool
}

func newFactorMemo() *factorMemo {
	return &factorMemo{entries: make(map[string]*factorEntry)}
}

// apply drops exactly the entries one delta could have changed.
func (m *factorMemo) apply(d core.Delta) {
	switch d.Op {
	case core.DeltaSetDomain, core.DeltaExtendUniform:
		// A wholesale domain replacement, or the shared domain extension,
		// which reaches every null, including every memoized component's.
		m.dropAll()
	case core.DeltaExtendDomain:
		m.dropNull(d.Null)
	case core.DeltaAddFact, core.DeltaRemoveFact:
		m.dropRel(d.Fact.Rel)
	}
}

// lookup scales the memoized ratio back to a count at the current total.
// A non-exact division means an invalidation invariant was breached; the
// entry is dropped and the lookup misses (the component is re-swept).
func (m *factorMemo) lookup(key string, total *big.Int) (*big.Int, bool) {
	if total == nil || total.Sign() == 0 {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	num := new(big.Int).Mul(e.ratio.Num(), total)
	quo, rem := new(big.Int).QuoRem(num, e.ratio.Denom(), new(big.Int))
	if rem.Sign() != 0 {
		delete(m.entries, key)
		return nil, false
	}
	return quo, true
}

// store memoizes a freshly computed component count against the current
// total, recording the signature and null set its validity depends on.
// Opaque components (no syntactic signature) are never memoized.
func (m *factorMemo) store(key string, q cq.Query, count, total *big.Int, db *core.Database) {
	if total == nil || total.Sign() == 0 {
		return
	}
	sig, ok := cq.Signature(q)
	if !ok {
		return
	}
	nulls := make(map[core.NullID]bool)
	for _, f := range db.Facts() {
		if !sig[f.Rel] {
			continue
		}
		for _, n := range f.Nulls() {
			nulls[n] = true
		}
	}
	e := &factorEntry{ratio: new(big.Rat).SetFrac(count, total), sig: sig, nulls: nulls}
	m.mu.Lock()
	m.entries[key] = e
	m.mu.Unlock()
}

func (m *factorMemo) dropRel(rel string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, e := range m.entries {
		if e.sig[rel] {
			delete(m.entries, k)
		}
	}
}

func (m *factorMemo) dropNull(n core.NullID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, e := range m.entries {
		if e.nulls[n] {
			delete(m.entries, k)
		}
	}
}

func (m *factorMemo) dropAll() {
	m.mu.Lock()
	m.entries = make(map[string]*factorEntry)
	m.mu.Unlock()
}

// factorRecorder adapts the session memo to count.FactorMemo for one
// call, counting the hits that end up in Result.Stats.FactorsReused. Its
// keys carry the call's planning-options suffix (see Solver.planKey).
type factorRecorder struct {
	p      *PreparedDB
	suffix string
	hits   int
}

func factorKey(q cq.Query, kind classify.CountingKind) string {
	return planCacheKey(fingerprint.Query(q), kind)
}

// LookupFactor implements count.FactorMemo.
func (r *factorRecorder) LookupFactor(q cq.Query, kind classify.CountingKind) (*big.Int, bool) {
	v, ok := r.p.factors.lookup(factorKey(q, kind)+r.suffix, r.p.total)
	if ok {
		r.hits++
		r.p.s.factorsReused.Add(1)
	}
	return v, ok
}

// StoreFactor implements count.FactorMemo.
func (r *factorRecorder) StoreFactor(q cq.Query, kind classify.CountingKind, count *big.Int) {
	r.p.factors.store(factorKey(q, kind)+r.suffix, q, count, r.p.total, r.p.db)
}
