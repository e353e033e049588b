package solver

import (
	"context"
	"fmt"
	"iter"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"github.com/incompletedb/incompletedb/internal/approx"
	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// methodEarlyExit is the method the decision problems report: an
// early-exit sweep on the compiled engine, outside the planner.
const methodEarlyExit = count.Method("sweep/early-exit")

// planCacheKey renders the cache key of one compiled plan: the counting
// kind and the canonical (variable-renaming-invariant) form of the
// query. Plans built under other planning options than the solver's
// append the suffix of Solver.planKey.
func planCacheKey(canonQ string, kind classify.CountingKind) string {
	if kind == classify.Completions {
		return "comp\x00" + canonQ
	}
	return "val\x00" + canonQ
}

// PreparedDB is a counting session over one incomplete database: the
// database's canonical form and its digest (the expensive half of every
// fingerprint, computed once per database version), its valuation-space
// geometry, and a per-(canonical query, kind) plan cache — each
// compiled plan embeds its sweep engine, so the interner and
// fact-arena compilation of internal/sweep also happen once per distinct
// query instead of once per call. The plan cache is a bounded LRU
// (engines are heavy); a session with endless distinct ad-hoc queries
// recompiles cold plans instead of growing without limit.
//
// A PreparedDB is a *live* session: the database may be mutated after
// Prepare — through the session's AddFact/RemoveFact/ExtendDomain
// methods, or directly on the database between calls — and the session
// resynchronizes when the database's version moves. A cached plan
// serves only the database version it was built at, so a write empties
// the plan cache. The next plan of a factorized query replans and
// recounts only the independent components whose facts or domains
// changed: each other component's description and count come from the
// session's factor memo, which is keyed by that content and bounded (see
// mutate.go). A component whose variables are renamed in the query is
// other content and misses.
//
// A PreparedDB is safe for concurrent use, including concurrent
// mutations through its own methods; mutating the database directly must
// not race with session calls. Plans handed out by Explain (and carried
// on Results) are values: a later write never changes them, and the
// next call builds a new plan instead.
type PreparedDB struct {
	s     *Solver
	db    *core.Database
	plans *planCache

	// mu orders mutations against reads: every read entry point holds the
	// read lock for its whole execution (after syncing to the database's
	// version), every mutation and sync holds the write lock.
	mu             sync.RWMutex
	canonDB        string
	digest         fingerprint.Digest
	total          *big.Int
	appliedVersion uint64
	factors        *factorMemo
}

// Prepare builds a counting session for db: it validates the database,
// computes its canonical form (shared by every fingerprint of the
// session) and its valuation-space size once, and returns a PreparedDB
// whose plan cache amortizes plan construction and sweep-engine
// compilation across calls. The database may keep changing afterwards —
// see the mutation methods (AddFact, RemoveFact, ExtendDomain) and the
// incremental-recount notes on PreparedDB.
func (s *Solver) Prepare(db *core.Database) (*PreparedDB, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	total, err := db.NumValuations()
	if err != nil {
		return nil, err
	}
	canon := fingerprint.Database(db)
	return &PreparedDB{
		s:              s,
		db:             db,
		canonDB:        canon,
		digest:         fingerprint.DigestOf(canon),
		total:          total,
		plans:          newPlanCache(),
		appliedVersion: db.Version(),
		factors:        newFactorMemo(),
	}, nil
}

// Database returns the prepared database.
func (p *PreparedDB) Database() *core.Database { return p.db }

// Solver returns the solver the session was prepared through.
func (p *PreparedDB) Solver() *Solver { return p.s }

// CanonicalForm returns the canonical (null-renaming-invariant) form of
// the prepared database at its current version.
func (p *PreparedDB) CanonicalForm() string {
	p.rlock()
	defer p.mu.RUnlock()
	return p.canonDB
}

// TotalValuations returns the number of valuations of the database (the
// product of its nulls' domain sizes) at its current version.
func (p *PreparedDB) TotalValuations() *big.Int {
	p.rlock()
	defer p.mu.RUnlock()
	return new(big.Int).Set(p.total)
}

// Fingerprint returns the cache key of (database, query, kind) without
// re-canonicalizing or re-hashing the database: identical to the
// package-level fingerprint of the same triple.
func (p *PreparedDB) Fingerprint(q cq.Query, kind fingerprint.Kind) string {
	p.rlock()
	defer p.mu.RUnlock()
	return fingerprint.OfDigest(p.digest, fingerprint.Query(q), kind)
}

// kindFingerprint maps a counting kind onto its fingerprint kind.
func kindFingerprint(kind classify.CountingKind) fingerprint.Kind {
	if kind == classify.Completions {
		return fingerprint.KindComp
	}
	return fingerprint.KindVal
}

// Explain returns the compiled plan for (q, kind) under the solver's
// configuration: ExplainWith without per-call options.
func (p *PreparedDB) Explain(q cq.Query, kind classify.CountingKind) (*plan.Plan, error) {
	return p.ExplainWith(q, kind, nil)
}

// ExplainWith returns the compiled plan for (q, kind) under the solver's
// configuration overlaid with the per-call options opts, building and
// caching it on first use. The plan is shared and must be treated as
// read-only; isomorphic queries (renamed variables, reordered atoms)
// share one entry, and calls with other planning options get entries of
// their own. A plan describes the database version it was built at: a
// later write leaves it as it is, and the next call returns a new plan.
func (p *PreparedDB) ExplainWith(q cq.Query, kind classify.CountingKind, opts *count.Options) (*plan.Plan, error) {
	p.rlock()
	defer p.mu.RUnlock()
	po, suffix := p.s.planKey(p.s.countOptions(context.Background(), opts))
	return p.planFor(fingerprint.Query(q), q, kind, po, &factorRecorder{p: p, suffix: suffix})
}

// planFor returns the cached plan for (canonical query, kind) under the
// planning options po, building it on first use with rec as its factor
// memo; rec carries the key suffix of po. Builds run outside the cache
// lock: plan construction can compile sweep engines over the whole
// database, and concurrent first uses of distinct queries should not
// serialize. A racing duplicate build of the same query is harmless —
// last writer wins, both plans are equivalent. Callers hold the session
// read lock, so the database version the plan is built and cached at
// cannot advance underneath the build, and a count it takes from the
// memo is a count at that version.
func (p *PreparedDB) planFor(canonQ string, q cq.Query, kind classify.CountingKind, po plan.Options, rec *factorRecorder) (*plan.Plan, error) {
	key := planCacheKey(canonQ, kind) + rec.suffix
	if pl, ok := p.plans.get(key); ok {
		return pl, nil
	}
	pl, err := plan.Build(p.db, q, kind, &po, rec)
	if err != nil {
		return nil, err
	}
	p.plans.add(key, pl)
	return pl, nil
}

// Count computes #Val(q) (kind Valuations) or #Comp(q) (kind Completions)
// over the prepared database: through the result cache and single-flight
// group when an isomorphic result is already known, by executing the
// session's cached plan otherwise. ctx cancels long sweeps.
func (p *PreparedDB) Count(ctx context.Context, q cq.Query, kind classify.CountingKind) (*Result, error) {
	return p.CountWith(ctx, q, kind, nil)
}

// CountWith is Count with per-call runtime options (the escape hatch the
// service's request overrides and job runner use): zero fields of opts
// inherit the solver's configuration. A call whose planning options
// (guard, engine variant) differ from the solver's uses cache entries of
// its own (see Solver.planKey), so it sees exactly the guard it asked
// for: a tightened guard is not answered from an earlier, looser
// computation, and a loosened guard's success never reaches a
// default-knob call.
func (p *PreparedDB) CountWith(ctx context.Context, q cq.Query, kind classify.CountingKind, opts *count.Options) (*Result, error) {
	start := time.Now()
	p.rlock()
	defer p.mu.RUnlock()
	eff := p.s.countOptions(ctx, opts)
	po, suffix := p.s.planKey(eff)
	rec := &factorRecorder{p: p, suffix: suffix}
	eff.FactorMemo = rec
	canonQ := fingerprint.Query(q)
	fp := fingerprint.OfDigest(p.digest, canonQ, kindFingerprint(kind))
	compute := func() (*Result, error) {
		pl, err := p.planFor(canonQ, q, kind, po, rec)
		if err != nil {
			return nil, err
		}
		return p.executeCount(pl, eff, fp, start)
	}
	return p.cachedCall(fp+suffix, eff, start, compute)
}

// executeCount runs a compiled plan and wraps the count in a Result.
func (p *PreparedDB) executeCount(pl *plan.Plan, eff *count.Options, fp string, start time.Time) (*Result, error) {
	ph := eff.Phases
	if ph == nil {
		ph = &count.PhaseTimes{}
		eff.Phases = ph
	}
	n, err := count.ExecutePlan(p.db, pl, eff)
	if err != nil {
		return nil, err
	}
	st := statsFromPlan(pl)
	p.s.factorsReused.Add(int64(st.FactorsReused))
	st.Epoch = p.appliedVersion
	st.Workers = effectiveWorkers(eff.Workers)
	st.Wall = time.Since(start)
	st.PhaseStep, st.PhaseMatch, st.PhaseDedup = ph.Step(), ph.Match(), ph.Dedup()
	return &Result{
		Count:       n,
		Method:      count.Method(pl.Method()),
		Plan:        pl,
		Fingerprint: fp,
		Stats:       st,
	}, nil
}

// cachedCall is the shared cache/single-flight harness of the counting
// and decision calls: read the cache, share in-flight identical work,
// store successful results — all under key, the call's fingerprint plus
// its planning-options suffix. With caching disabled the LRU stores
// nothing, and identical concurrent calls still share one flight.
func (p *PreparedDB) cachedCall(key string, eff *count.Options, start time.Time, compute func() (*Result, error)) (*Result, error) {
	if res, ok := p.s.cache.get(key); ok {
		p.s.hits.Add(1)
		return p.annotateHit(res, eff, start), nil
	}
	p.s.misses.Add(1)
	res, sharedFlight, err := p.s.flight.do(key, func() (*Result, error) {
		p.s.computations.Add(1)
		r, err := compute()
		if err != nil {
			return nil, err
		}
		p.s.cache.add(key, r.stripped())
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	if sharedFlight {
		p.s.shared.Add(1)
	}
	return res.clone(), nil
}

// annotateHit returns a copy of a cached result annotated for this call:
// the cache flag, this call's worker width and its (near zero) wall time.
func (p *PreparedDB) annotateHit(res *Result, eff *count.Options, start time.Time) *Result {
	c := res.clone()
	c.Stats.CacheHit = true
	c.Stats.Workers = effectiveWorkers(eff.Workers)
	c.Stats.Epoch = p.appliedVersion
	c.Stats.Wall = time.Since(start)
	return c
}

// Cached peeks at the result cache for (q, kind) without computing
// anything: at the entry of a call under the solver's own planning
// options. The boolean reports whether a result was found. A found
// result counts as a cache hit; an absent one does not count as a miss
// (the compute call that typically follows will). The HTTP service uses
// this to answer jobs and budget-overridden requests from warm cache
// entries: a budget bounds computation, not lookup.
func (p *PreparedDB) Cached(q cq.Query, kind fingerprint.Kind) (*Result, bool) {
	p.rlock()
	defer p.mu.RUnlock()
	res, ok := p.s.peek(p.digest, fingerprint.Query(q), kind)
	if ok {
		res.Stats.Epoch = p.appliedVersion
	}
	return res, ok
}

// BruteCount bypasses every fast path and counts by the sharded
// brute-force sweep (with completion dedup for kind Completions) — the
// workload of a forced job. The result cache is not consulted, but the
// computed count is stored under the call's key (see Solver.planKey):
// forced sweeps exist to (re)do the work, and their answers are as valid
// as any.
func (p *PreparedDB) BruteCount(ctx context.Context, q cq.Query, kind classify.CountingKind, opts *count.Options) (*Result, error) {
	start := time.Now()
	p.rlock()
	defer p.mu.RUnlock()
	eff := p.s.countOptions(ctx, opts)
	po, suffix := p.s.planKey(eff)
	fp := fingerprint.OfDigest(p.digest, fingerprint.Query(q), kindFingerprint(kind))
	pl, err := plan.BruteOnly(p.db, q, kind, &po)
	if err != nil {
		return nil, err
	}
	res, err := p.executeCount(pl, eff, fp, start)
	if err != nil {
		return nil, err
	}
	p.s.computations.Add(1)
	p.s.cache.add(fp+suffix, res.stripped())
	return res.clone(), nil
}

// Certain reports whether q holds in every completion of the prepared
// database, as a Result whose Holds field carries the verdict. Verdicts
// are cached by fingerprint like counts.
func (p *PreparedDB) Certain(ctx context.Context, q cq.Query) (*Result, error) {
	return p.CertainWith(ctx, q, nil)
}

// CertainWith is Certain with per-call runtime options (see CountWith).
func (p *PreparedDB) CertainWith(ctx context.Context, q cq.Query, opts *count.Options) (*Result, error) {
	return p.decide(ctx, q, opts, fingerprint.KindCertain, count.IsCertain)
}

// Possible reports whether q holds in some completion of the prepared
// database, as a Result whose Holds field carries the verdict.
func (p *PreparedDB) Possible(ctx context.Context, q cq.Query) (*Result, error) {
	return p.PossibleWith(ctx, q, nil)
}

// PossibleWith is Possible with per-call runtime options (see CountWith).
func (p *PreparedDB) PossibleWith(ctx context.Context, q cq.Query, opts *count.Options) (*Result, error) {
	return p.decide(ctx, q, opts, fingerprint.KindPossible, count.IsPossible)
}

// decide is the shared implementation of the cached decision problems.
func (p *PreparedDB) decide(ctx context.Context, q cq.Query, opts *count.Options, kind fingerprint.Kind, run func(*core.Database, cq.Query, *count.Options) (bool, error)) (*Result, error) {
	start := time.Now()
	p.rlock()
	defer p.mu.RUnlock()
	eff := p.s.countOptions(ctx, opts)
	_, suffix := p.s.planKey(eff)
	fp := fingerprint.OfDigest(p.digest, fingerprint.Query(q), kind)
	compute := func() (*Result, error) {
		ph := eff.Phases
		if ph == nil {
			ph = &count.PhaseTimes{}
			eff.Phases = ph
		}
		holds, err := run(p.db, q, eff)
		if err != nil {
			return nil, err
		}
		return &Result{
			Holds:       &holds,
			Method:      methodEarlyExit,
			Fingerprint: fp,
			Stats: Stats{
				Epoch:      p.appliedVersion,
				Workers:    effectiveWorkers(eff.Workers),
				Wall:       time.Since(start),
				PhaseStep:  ph.Step(),
				PhaseMatch: ph.Match(),
				PhaseDedup: ph.Dedup(),
			},
		}, nil
	}
	return p.cachedCall(fp+suffix, eff, start, compute)
}

// AllCompletions counts the distinct completions of the prepared
// database: #Comp(TRUE), routed through the planner like every other
// count, so the Result carries a method, a plan and sweep stats.
func (p *PreparedDB) AllCompletions(ctx context.Context) (*Result, error) {
	return p.Count(ctx, cq.Tautology{}, classify.Completions)
}

// AllCompletionsWith is AllCompletions with per-call runtime options.
func (p *PreparedDB) AllCompletionsWith(ctx context.Context, opts *count.Options) (*Result, error) {
	return p.CountWith(ctx, cq.Tautology{}, classify.Completions, opts)
}

// Mu computes Libkin's relative frequency µ_k(q, T) (Section 7 of the
// paper): the fraction of valuations over the uniform domain {1, …, k}
// whose completion satisfies q, using the prepared database's naïve table
// and ignoring its attached domains. The derived uniform database is
// prepared through the same solver, so the underlying #Val count shares
// the session's result cache across repeated k.
func (p *PreparedDB) Mu(ctx context.Context, q cq.Query, k int) (*MuResult, error) {
	return p.MuWith(ctx, q, k, nil)
}

// MuWith is Mu with per-call runtime options (see CountWith).
func (p *PreparedDB) MuWith(ctx context.Context, q cq.Query, k int, opts *count.Options) (*MuResult, error) {
	p.rlock()
	defer p.mu.RUnlock()
	return p.s.Mu(ctx, p.db, q, k, opts)
}

// Mu computes Libkin's relative frequency µ_k(q, T) for db's naïve table
// T, ignoring any domains attached to db (so it also accepts tables whose
// nulls have no domains — the Section 7 setting). The derived uniform
// database over {1, …, k} is prepared through this solver, so repeated
// calls share the result cache.
func (s *Solver) Mu(ctx context.Context, db *core.Database, q cq.Query, k int, opts *count.Options) (*MuResult, error) {
	u, err := count.MuDatabase(db, k)
	if err != nil {
		return nil, err
	}
	up, err := s.Prepare(u)
	if err != nil {
		return nil, err
	}
	res, err := up.CountWith(ctx, q, classify.Valuations, opts)
	if err != nil {
		return nil, err
	}
	total := up.TotalValuations()
	if total.Sign() == 0 {
		return nil, fmt.Errorf("count: µ_k undefined for a database without valuations")
	}
	return &MuResult{
		Ratio: new(big.Rat).SetFrac(res.Count, total),
		K:     k,
		Count: res,
	}, nil
}

// Estimate runs the Karp–Luby FPRAS for #Val(q) with multiplicative
// error eps and failure probability delta; q must be a (union of)
// BCQ(s). Estimates are randomized, so they bypass the result cache; the
// full sampling diagnostics (samples, cylinders, total weight) ride along
// instead of being discarded, and so does the sampling plan, whose
// cylinder set the estimator samples from.
func (p *PreparedDB) Estimate(ctx context.Context, q cq.Query, eps, delta float64, r *rand.Rand) (*EstimateResult, error) {
	start := time.Now()
	p.rlock()
	defer p.mu.RUnlock()
	pl, err := plan.BuildEstimate(p.db, q)
	if err != nil {
		return nil, err
	}
	kl, err := approx.KarpLubyCylinders(ctx, pl.Root.Cylinders, eps, delta, r)
	if err != nil {
		return nil, err
	}
	return &EstimateResult{
		Estimate:    kl.Estimate,
		Eps:         eps,
		Delta:       delta,
		Samples:     kl.Samples,
		Cylinders:   kl.Cylinders,
		TotalWeight: kl.TotalWeight,
		Wall:        time.Since(start),
		Plan:        pl,
	}, nil
}

// MonteCarlo estimates #Val(q) by uniform sampling (unbiased but without
// FPRAS guarantees), reporting the full sampling tallies.
func (p *PreparedDB) MonteCarlo(ctx context.Context, q cq.Query, samples int, r *rand.Rand) (*MonteCarloResult, error) {
	p.rlock()
	defer p.mu.RUnlock()
	return approx.MonteCarloValuationsContext(ctx, p.db, q, samples, r)
}

// CompletionsLowerBound samples valuations and reports the distinct
// satisfying completions observed — a lower bound on #Comp(q) with no
// approximation guarantee (none is possible unless NP = RP; Theorems
// 5.5/5.7 of the paper) — together with the sampling tallies.
func (p *PreparedDB) CompletionsLowerBound(ctx context.Context, q cq.Query, samples int, r *rand.Rand) (*LowerBoundResult, error) {
	p.rlock()
	defer p.mu.RUnlock()
	return approx.CompletionsLowerBoundContext(ctx, p.db, q, samples, r)
}

// Completions returns a streaming iterator over the distinct completions
// of the prepared database that satisfy q, in first-seen enumeration
// order, without materializing the whole set:
//
//	for inst, err := range pdb.Completions(ctx, q) {
//		if err != nil { ... }
//		// consume inst
//	}
//
// Breaking out of the loop stops the underlying sweep. A non-nil error is
// yielded at most once, as the final pair (the brute-force guard, an
// invalid database, or ctx's cancellation), with a nil instance.
func (p *PreparedDB) Completions(ctx context.Context, q cq.Query) iter.Seq2[*core.Instance, error] {
	return p.CompletionsWith(ctx, q, nil)
}

// CompletionsWith is Completions with per-call runtime options.
func (p *PreparedDB) CompletionsWith(ctx context.Context, q cq.Query, opts *count.Options) iter.Seq2[*core.Instance, error] {
	return func(yield func(*core.Instance, error) bool) {
		p.rlock()
		defer p.mu.RUnlock()
		eff := p.s.countOptions(ctx, opts)
		stopped := false
		err := count.StreamCompletions(p.db, q, eff, func(inst *core.Instance) bool {
			if !yield(inst, nil) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil && !stopped {
			yield(nil, err)
		}
	}
}
