package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"slices"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// This file is the write half of a PreparedDB: the mutation surface
// (AddFact/RemoveFact/ExtendDomain), the version sync that brings the
// session up to the database's version, and the factor memo that lets a
// recount after a write confined to one component replan and recount
// only that component. A cached plan serves only the version it was
// built at, so every sync that advances the version empties the plan
// cache. The next plan of a factorized query takes each component the
// write left untouched — its description and its count — from the factor
// memo, which is keyed by the content each entry was computed from, so a
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
// the factorized components that do not read rel are still planned and
// counted from the factor memo. In a non-uniform database every null
// argument must already have a domain (set one with ExtendDomain
// first); a duplicate fact is a no-op.
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

// factorMemo caches, per session, the parts of factorized #Val plans:
// for each part, its count as a fraction count/total of the
// valuation-space total and, unless the part sweeps, its payload-free
// description (plan.Node.Description). A part's plan and fraction depend
// only on the part as written, the facts of its relations, the domains
// of their nulls, whether the table is Codd and the planning options, so
// an entry keyed by exactly that content (factorKey) is valid whenever
// its key is found: a write elsewhere, or one that is later undone,
// leaves it usable, and a write that changes the content makes a new
// key. The planner looks each part up (plan.Memo) and the executor
// stores the parts it computed (count.FactorMemo); the count at the
// current total is ratio × total, exactly.
type factorMemo = lru[factorEntry]

// factorEntry is one factor memo entry. It holds no engine, cylinder set
// or database: desc is stripped of payloads, and nil for a part that
// sweeps, which is planned afresh.
type factorEntry struct {
	desc  *plan.Node
	ratio *big.Rat
}

// factorMemoSize bounds a session's factor memo; the least recently used
// entry is dropped and simply recomputed if asked for again. It is a
// constant, independent of the result cache's size, so a session whose
// result cache is disabled still recounts incrementally.
const factorMemoSize = 1024

func newFactorMemo() *factorMemo { return newLRU[factorEntry](factorMemoSize) }

// factorRecorder adapts the session memo to plan.Memo for the plan build
// of one call and to count.FactorMemo for its execution. Its keys carry
// the call's planning-options suffix (see Solver.planKey). The scratch
// buffers make a key cost one allocation-light pass; a build looks its
// parts up one after another.
type factorRecorder struct {
	p      *PreparedDB
	suffix string

	buf   []byte
	rels  []string
	nulls []core.NullID
}

// factorKey returns the factor memo key of part q: the SHA-256 of a
// length-prefixed encoding of
//
//   - q as written (appendQuery), so a part whose variables are renamed
//     or whose atoms are reordered misses, and a stored description
//     renders exactly as the part would;
//   - the call's planning suffix;
//   - whether the table is a Codd table: the flag routes a part
//     (Theorem 3.7) and enters its Table 1 class;
//   - the facts of each relation q mentions, in sorted relation order and
//     FactsOf order (a reordered table is only a miss);
//   - the shared domain of a uniform database, or else the domain of
//     every null those facts hold.
//
// ok is false for a query outside BCQs, UCQs and BCQs with
// inequalities: it is never memoized.
func (r *factorRecorder) factorKey(q cq.Query) (key string, ok bool) {
	b, rels, ok := appendQuery(r.buf[:0], r.rels[:0], q)
	if !ok {
		return "", false
	}
	db := r.p.db
	slices.Sort(rels)
	rels = slices.Compact(rels)
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

// appendQuery appends an injective encoding of q as written — a tag,
// then every atom's relation and variables, every disjunct and every
// inequality, each list and string length-prefixed — and appends the
// relation of every atom to rels. ok is false for any other query.
func appendQuery(b []byte, rels []string, q cq.Query) ([]byte, []string, bool) {
	switch t := q.(type) {
	case *cq.BCQ:
		b, rels = appendBCQ(append(b, 'c'), rels, t)
	case *cq.UCQ:
		b = binary.AppendUvarint(append(b, 'u'), uint64(len(t.Disjuncts)))
		for _, d := range t.Disjuncts {
			b, rels = appendBCQ(b, rels, d)
		}
	case *cq.BCQNeq:
		b, rels = appendBCQ(append(b, 'i'), rels, t.Base)
		b = binary.AppendUvarint(b, uint64(len(t.Diffs)))
		for _, d := range t.Diffs {
			b = appendField(appendField(b, d[0]), d[1])
		}
	default:
		return b, rels, false
	}
	return b, rels, true
}

// appendBCQ appends the atoms of q for appendQuery.
func appendBCQ(b []byte, rels []string, q *cq.BCQ) ([]byte, []string) {
	b = binary.AppendUvarint(b, uint64(len(q.Atoms)))
	for _, a := range q.Atoms {
		b = appendField(b, a.Rel)
		b = binary.AppendUvarint(b, uint64(len(a.Vars)))
		for _, v := range a.Vars {
			b = appendField(b, v)
		}
		rels = append(rels, a.Rel)
	}
	return b, rels
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

// Component implements plan.Memo: it keys part q and scales a memoized
// fraction back to a count at the current total. The division is exact
// for a valid entry; a remainder would mean the key missed a dependency,
// so the lookup then misses and the part is planned and computed. With
// no valuations there is no fraction to keep, and the key is empty.
func (r *factorRecorder) Component(q cq.Query) (string, *plan.Node, *big.Int) {
	total := r.p.total
	if total.Sign() == 0 {
		return "", nil, nil
	}
	key, ok := r.factorKey(q)
	if !ok {
		return "", nil, nil
	}
	e, ok := r.p.factors.get(key)
	if !ok {
		return key, nil, nil
	}
	num := new(big.Int).Mul(e.ratio.Num(), total)
	quo, rem := num.QuoRem(num, e.ratio.Denom(), new(big.Int))
	if rem.Sign() != 0 {
		return key, nil, nil
	}
	return key, e.desc, quo
}

// StoreFactor implements count.FactorMemo: it memoizes a freshly
// computed part's description and count, as a fraction of the current
// total, under the key the plan-time lookup computed. The plan was built
// at the session's current version, under the same read lock, so that
// total is the one the key was computed at, and it is not zero.
func (r *factorRecorder) StoreFactor(key string, n *plan.Node, count *big.Int) {
	r.p.factors.add(key, factorEntry{desc: n.Description(), ratio: new(big.Rat).SetFrac(count, r.p.total)})
}
