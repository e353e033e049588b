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
// built at, so every write empties the plan cache. The next plan of a
// factorized query takes each component the write left untouched — its
// description and its count — from the factor memo, which is keyed by
// the content each entry was computed from, so a write leaves it alone:
// an entry whose content changed is never found again and ages out of
// the bounded LRU.
//
// A session write also recomputes only what it touched of the database
// digest (a fingerprint.Index, built on the first write): AddFact a
// ground line or the component the new fact merges; RemoveFact a ground
// line or the pieces the removed fact's component splits into;
// ExtendDomain the component of the null whose domain grew;
// ExtendUniformDomain only the header. The valuation total is recomputed
// only when a domain or the set of nulls changed.
//
// The locking discipline: every read entry point holds p.mu.RLock for its
// whole execution, and rlock() first brings the session up to date with
// the database's version under the write lock. Mutations through the
// session methods sync eagerly; mutating the database directly is also
// supported — the next call on the session notices the new version and
// recomputes the digest and the total from scratch.

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
	x := p.indexLocked()
	if err := p.db.AddFact(rel, args...); err != nil {
		return err
	}
	p.wroteLocked(func() bool {
		delete(p.relDigests, rel)
		facts := p.db.FactsOf(rel)
		return x.AddFact(facts[len(facts)-1])
	})
	return nil
}

// RemoveFact removes rel(args...) from the prepared database and updates
// the session like AddFact. It reports whether the fact was present.
func (p *PreparedDB) RemoveFact(rel string, args ...core.Value) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	x := p.indexLocked()
	removed := p.db.RemoveFact(rel, args...)
	p.wroteLocked(func() bool {
		delete(p.relDigests, rel)
		return x.RemoveFact(core.Fact{Rel: rel, Args: args})
	})
	return removed
}

// ExtendDomain appends values to the domain of null n (creating the
// domain if n had none) and updates the session like AddFact; the factor
// memo still serves the components whose facts do not hold n.
func (p *PreparedDB) ExtendDomain(n core.NullID, values ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	x := p.indexLocked()
	if err := p.db.ExtendDomain(n, values...); err != nil {
		return err
	}
	p.wroteLocked(func() bool {
		null := core.Null(n)
		for _, f := range p.db.Facts() {
			if slices.Contains(f.Args, null) {
				delete(p.relDigests, f.Rel)
			}
		}
		return x.Touch(n)
	})
	return nil
}

// ExtendUniformDomain appends values to the shared domain of a uniform
// prepared database and updates the session; the extension reaches every
// null, so no factor memo entry matches afterwards. The relation digests
// stay: a uniform database's hold no domain.
func (p *PreparedDB) ExtendUniformDomain(values ...string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.indexLocked()
	if err := p.db.ExtendUniformDomain(values...); err != nil {
		return err
	}
	p.wroteLocked(func() bool { return true })
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
// consistent (digest, total, plans, memo) snapshot no mutation can
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

// syncLocked brings the session up to the database's version after
// writes it was not told about (direct writes to the database): it counts
// the mutations, empties the plan cache, recomputes the digest and the
// valuation total from scratch and drops the component index, which the
// next session write rebuilds, and every relation digest. The factor
// memo needs nothing: its keys name the content each entry was computed
// from (factorKey), so a changed component simply misses. Callers hold
// the write lock.
func (p *PreparedDB) syncLocked() {
	ver := p.db.Version()
	if ver == p.appliedVersion {
		return
	}
	p.s.mutations.Add(int64(ver - p.appliedVersion))
	p.s.plansInvalidated.Add(int64(p.plans.purge()))
	p.canon = nil
	clear(p.relDigests)
	p.digest = fingerprint.DatabaseDigest(p.db)
	p.refreshTotalLocked()
	p.appliedVersion = ver
}

// indexLocked syncs the session and returns its component index,
// building it on the session's first write. Callers hold the write lock
// and are about to write.
func (p *PreparedDB) indexLocked() *fingerprint.Index {
	p.syncLocked()
	if p.canon == nil {
		p.canon = fingerprint.NewIndex(p.db)
	}
	return p.canon
}

// wroteLocked finishes a session write that indexLocked prepared. When
// the write moved the version by one, update accounts for it in the
// component index and reports whether it changed a domain or the set of
// nulls; the session then counts the mutation, empties the plan cache and
// combines the digest, recomputing the total only if update said so. A
// write that changed nothing leaves the session as it is, and any other
// version gap falls back to syncLocked.
func (p *PreparedDB) wroteLocked(update func() bool) {
	ver := p.db.Version()
	switch ver {
	case p.appliedVersion:
		return
	case p.appliedVersion + 1:
	default:
		p.syncLocked()
		return
	}
	changed := update()
	p.s.mutations.Add(1)
	p.s.plansInvalidated.Add(int64(p.plans.purge()))
	p.digest = p.canon.Digest()
	if changed {
		p.refreshTotalLocked()
	}
	p.appliedVersion = ver
}

// refreshTotalLocked re-derives the valuation-space size from the
// (already mutated) database.
func (p *PreparedDB) refreshTotalLocked() {
	if total, err := p.db.NumValuations(); err == nil {
		p.total = total
	} else {
		// The database was mutated into an invalid state (e.g. a null
		// without a domain added directly, bypassing the session methods).
		// Counting calls will surface the validation error; the memo
		// cannot scale counts against an undefined total and is skipped
		// while it is zero, and the executor computes the total itself.
		p.total = big.NewInt(0)
	}
}

// factorMemo caches, per session, the parts of factorized #Val plans:
// for each part, its count at the valuation total it was computed at
// and, unless the part sweeps, its payload-free description
// (plan.Node.Description). A part's plan and relative count
// count/total depend only on the part as written, the facts of its
// relations, the domains of their nulls, whether the table is Codd and
// the planning options, so an entry keyed by exactly that content
// (factorKey) is valid whenever its key is found: a write elsewhere, or
// one that is later undone, leaves it usable, and a write that changes
// the content makes a new key. The planner looks each part up
// (plan.Memo) and the executor stores the parts it computed
// (count.FactorMemo). An entry stored at the current total serves its
// count as it is (a ground write leaves the total alone); any other is
// scaled to count × total / its total, exactly.
type factorMemo = lru[factorEntry]

// factorEntry is one factor memo entry. It holds no engine, cylinder set
// or database: desc is stripped of payloads, and nil for a part that
// sweeps, which is planned afresh. count and total are shared and never
// mutated; total is the session's total the entry was stored at.
type factorEntry struct {
	desc         *plan.Node
	count, total *big.Int
}

// factorMemoSize bounds a session's factor memo; the least recently used
// entry is dropped and simply recomputed if asked for again. It is a
// constant, independent of the result cache's size, so a session whose
// result cache is disabled still recounts incrementally.
const factorMemoSize = 1024

func newFactorMemo() *factorMemo { return newLRU[factorEntry](factorMemoSize) }

// factorRecorder adapts the session memo to plan.Memo for the plan build
// of one call and to count.FactorMemo for its execution. Its keys carry
// the call's planning-options suffix (see Solver.planKey). answers holds
// the count LookupFactor gave for each key the execution asked about,
// nil for a miss: the one record of the parts the execution took from
// the memo, which the call's stats count as reused (statsFromPlan).
type factorRecorder struct {
	p       *PreparedDB
	suffix  string
	answers map[string]*big.Int
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
//   - the name and the digest (relationDigestLocked) of each relation q
//     mentions, in sorted order: its facts in FactsOf order (a
//     reordered table is only a miss), their arity and, in a
//     non-uniform database, the domain of every null they hold;
//   - the shared domain of a uniform database.
//
// A key costs a pass over q and a digest lookup per relation, however
// many facts the relations hold. ok is false for a query appendQuery
// cannot encode: it is never memoized.
func (r *factorRecorder) factorKey(q cq.Query) (key string, ok bool) {
	// The encoding is built on the stack; a longer one grows onto the heap.
	var buf [256]byte
	var relBuf [8]string
	b, rels, ok := appendQuery(buf[:0], relBuf[:0], q)
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
	r.p.relMu.Lock()
	for _, rel := range rels {
		d := r.p.relationDigestLocked(rel)
		b = append(appendField(b, rel), d[:]...)
	}
	r.p.relMu.Unlock()
	if db.Uniform() {
		b = appendDomain(append(b, 'u'), db.UniformDomain())
	} else {
		b = append(b, 'n')
	}
	sum := sha256.Sum256(b)
	return string(sum[:]), true
}

// relationDigestLocked returns the session's digest of relation rel:
// the SHA-256 of appendRelation, computed at the session's version on
// first use and kept until a write changes the relation (see
// PreparedDB.relDigests). Callers hold p.relMu under the session's read
// lock.
func (p *PreparedDB) relationDigestLocked(rel string) [sha256.Size]byte {
	d, ok := p.relDigests[rel]
	if !ok {
		var buf [256]byte
		var nulls [32]core.NullID
		d = sha256.Sum256(appendRelation(buf[:0], nulls[:0], p.db, rel))
		if p.relDigests == nil {
			p.relDigests = make(map[string][sha256.Size]byte)
		}
		p.relDigests[rel] = d
	}
	return d
}

// appendRelation appends the content of relation rel of db that its
// parts' plans and counts read: the number of facts, their arity, the
// facts in FactsOf order and, when db is not uniform, the domain of
// every null they hold, in null order. The arity of a relation without
// facts is not content: a relation emptied by RemoveFact keeps its
// arity registered, one never written has none, and no #Val plan or
// count tells them apart. nulls is scratch.
func appendRelation(b []byte, nulls []core.NullID, db *core.Database, rel string) []byte {
	facts := db.FactsOf(rel)
	b = binary.AppendUvarint(b, uint64(len(facts)))
	if len(facts) > 0 {
		b = binary.AppendUvarint(b, uint64(db.Arity(rel)))
	}
	for _, f := range facts {
		for _, a := range f.Args {
			if a.IsNull() {
				b = binary.AppendUvarint(append(b, 1), uint64(a.NullID()))
				nulls = append(nulls, a.NullID())
			} else {
				b = appendField(append(b, 0), a.Constant())
			}
		}
	}
	if !db.Uniform() {
		slices.Sort(nulls)
		for _, n := range slices.Compact(nulls) {
			b = appendDomain(binary.AppendUvarint(b, uint64(n)), db.Domain(n))
		}
	}
	return b
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

// Component implements plan.Memo: it keys part q and takes a memoized
// count at the current total (lookup); a count that does not scale
// exactly is a miss, and the part is planned and computed. With no
// valuations there is no total to scale a count by, and the key is empty.
func (r *factorRecorder) Component(q cq.Query) (string, *plan.Node, *big.Int) {
	total := r.p.total
	if total.Sign() == 0 {
		return "", nil, nil
	}
	key, ok := r.factorKey(q)
	if !ok {
		return "", nil, nil
	}
	e, count := r.lookup(key)
	if count == nil {
		return key, nil, nil
	}
	return key, e.desc, count
}

// lookup returns the entry under key and its count at the current total,
// or a nil count when there is no entry, or the count does not scale to
// the total exactly: a remainder would mean the key missed a dependency.
func (r *factorRecorder) lookup(key string) (factorEntry, *big.Int) {
	e, ok := r.p.factors.get(key)
	if !ok {
		return e, nil
	}
	total := r.p.total
	if e.total.Cmp(total) == 0 {
		return e, e.count
	}
	num := new(big.Int).Mul(e.count, total)
	quo, rem := num.QuoRem(num, e.total, new(big.Int))
	if rem.Sign() != 0 {
		return e, nil
	}
	return e, quo
}

// LookupFactor implements count.FactorMemo: the executor asks it about
// each keyed part of the plan it runs, so a plan built before the memo
// held a part, such as a cached plan run again after its result was
// evicted or with the result cache off, still reuses the part's count.
// The first answer for a key is kept and repeated, so the answers of one
// execution agree even while other calls store parts. The plan was built
// at the session's current version, under the same read lock, so its
// total is not zero.
func (r *factorRecorder) LookupFactor(key string) (*big.Int, bool) {
	count, asked := r.answers[key]
	if !asked {
		_, count = r.lookup(key)
		if r.answers == nil {
			r.answers = make(map[string]*big.Int)
		}
		r.answers[key] = count
	}
	return count, count != nil
}

// served reports whether the execution took the count of the part keyed
// key from the memo. r may be nil: a call without a memo.
func (r *factorRecorder) served(key string) bool {
	return r != nil && key != "" && r.answers[key] != nil
}

// StoreFactor implements count.FactorMemo: it memoizes a freshly
// computed part's description and count, with the current total, under
// the key the plan-time lookup computed. The plan was built at the
// session's current version, under the same read lock, so that total is
// the one the key was computed at, and it is not zero.
func (r *factorRecorder) StoreFactor(key string, n *plan.Node, count *big.Int) {
	r.p.factors.add(key, factorEntry{desc: n.Description(), count: count, total: r.p.total})
}
