package solver

import (
	"math/big"
	"runtime"
	"time"

	"github.com/incompletedb/incompletedb/internal/approx"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// Result is the outcome of one counting (or decision) call on a prepared
// database: the count itself, the method and plan that produced it, and
// an execution Stats block. It replaces the bare (big.Int, Method, error)
// triples of the pre-session API.
//
// Results handed out by a Solver are safe to mutate: Count and Holds are
// fresh copies per call. Plan is shared and must be treated as read-only
// (plans are immutable after building).
type Result struct {
	// Count is the exact count; nil for the decision problems
	// (certain/possible), which report through Holds instead.
	Count *big.Int

	// Holds is the verdict of a certain/possible call; nil for counts.
	Holds *bool

	// Method names the algorithm that produced the result. For rewrite
	// plans it is the plan's compact operator signature, e.g.
	// "complement(exact/theorem-3.9)".
	Method count.Method

	// Plan is the compiled plan the result was executed from (nil for the
	// decision problems, which run an early-exit sweep outside the
	// planner). It is the same plan Explain renders.
	Plan *plan.Plan

	// Fingerprint is the canonical cache key of (database, query, kind);
	// isomorphic inputs share it.
	Fingerprint string

	// Stats describes how the result was computed.
	Stats Stats
}

// Stats is the execution report attached to every Result: what the
// underlying sweep engines of internal/sweep enumerated, whether the
// result came from the solver's cache, and how long the call took.
type Stats struct {
	// SweptValuations is the total size of the enumerated spaces of the
	// plan's sweep nodes — the number of valuations a brute-force
	// execution accounts for, after relevant-null pruning. It is not the
	// number of leaves the sweeps evaluated, which may be far fewer: a
	// #Val sweep of a monotone query counts a satisfied leaf's whole
	// witness block without visiting it, and a #Comp sweep skips every
	// block whose prefix state it has already swept. Nil when no sweep
	// ran: the plan has no sweep node (closed-form and cylinder routes
	// enumerate no valuations), or each one is in a factor the plan
	// reused (see FactorsReused).
	SweptValuations *big.Int

	// PrunedNulls is how many irrelevant nulls the sweeps factored out of
	// the enumeration (summed over the sweep nodes that ran).
	PrunedNulls int

	// PruneMultiplier is the factored-out term ∏ |dom(⊥)| over the pruned
	// nulls (nil when nothing was pruned): each enumerated valuation
	// stood for this many valuations of the full space.
	PruneMultiplier *big.Int

	// CacheHit reports that the result was served from the solver's
	// fingerprint-keyed cache rather than recomputed. A cached result's
	// Plan, Method and sweep stats describe the FIRST computation's route.
	CacheHit bool

	// FactorsReused is how many independent components of the executed
	// factorized plan took their count from the session's factor memo
	// instead of being planned and counted again — the
	// incremental-recount dividend: after a write touching one component,
	// the other components' counts are reused. It is a property of the
	// plan, so a count that runs a plan Explain built reports the same.
	FactorsReused int

	// Epoch is the database version (core.Database.Version) the session
	// had applied when the call ran — every mutation bumps it.
	Epoch uint64

	// Workers is the worker-pool width the call ran (or would run) its
	// sweeps with.
	Workers int

	// Kernel is "uint64", the width of every sweep's shard tallies, when
	// a sweep ran (SweptValuations is set), and empty otherwise. Since
	// the guard proves one width sufficient it carries no information
	// beyond "a sweep ran"; it remains because the count wire form and
	// the benchmark harness (bench/exec.go) read it.
	Kernel string

	// Wall is the wall-clock time of this call (near zero for cache hits).
	Wall time.Duration

	// PhaseStep, PhaseMatch and PhaseDedup split the call's brute-force
	// sweep time into its phases — advancing cursors, evaluating the
	// query, deduplicating completions — as sampled estimates of total
	// worker time (concurrent shards add up, so the sum can exceed Wall).
	// All zero when the call ran no brute-force sweep, and describing the
	// first computation on cache hits.
	PhaseStep  time.Duration
	PhaseMatch time.Duration
	PhaseDedup time.Duration
}

// clone returns a copy of r safe to hand to a caller: the big integers a
// caller could plausibly mutate are duplicated, the immutable plan is
// shared.
func (r *Result) clone() *Result {
	c := *r
	if r.Count != nil {
		c.Count = new(big.Int).Set(r.Count)
	}
	if r.Holds != nil {
		h := *r.Holds
		c.Holds = &h
	}
	if r.Stats.SweptValuations != nil {
		c.Stats.SweptValuations = new(big.Int).Set(r.Stats.SweptValuations)
	}
	if r.Stats.PruneMultiplier != nil {
		c.Stats.PruneMultiplier = new(big.Int).Set(r.Stats.PruneMultiplier)
	}
	return &c
}

// stripped returns the retention copy of r for the solver-wide result
// cache: the same result with a payload-stripped plan, so the cache
// holds plan *descriptions* (which render and serialize identically),
// not compiled sweep engines or the databases they were planned on.
func (r *Result) stripped() *Result {
	if r.Plan == nil {
		return r
	}
	c := *r
	c.Plan = r.Plan.StripPayloads()
	return &c
}

// statsFromPlan derives the plan-side execution stats from an executed
// plan: the compiled engines of internal/sweep carry the geometry of the
// spaces the execution swept, and a part whose count the plan took from
// the factor memo (plan.Node.Reused) is a reused factor that swept
// nothing, whatever its plan says.
func statsFromPlan(p *plan.Plan) Stats {
	var st Stats
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.Reused != nil {
			st.FactorsReused++
			return
		}
		if n.Op == plan.OpSweep && n.Engine != nil {
			if st.SweptValuations == nil {
				st.SweptValuations = new(big.Int)
			}
			st.SweptValuations.Add(st.SweptValuations, n.Engine.Size())
			st.PrunedNulls += n.Engine.Pruned()
			if n.Engine.Pruned() > 0 {
				if st.PruneMultiplier == nil {
					st.PruneMultiplier = big.NewInt(1)
				}
				st.PruneMultiplier.Mul(st.PruneMultiplier, n.Engine.Multiplier())
			}
			st.Kernel = "uint64"
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return st
}

// effectiveWorkers mirrors the worker-pool default of internal/count: 0
// means one worker per CPU.
func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.NumCPU()
	}
	return w
}

// EstimateResult reports a Karp–Luby estimate together with the sampling
// diagnostics the estimator produced (previously discarded by the bare
// big.Int API) and the estimate's plan.
type EstimateResult struct {
	// Estimate is the (ε,δ)-approximation of #Val(q).
	Estimate *big.Int
	// Eps and Delta are the guarantee parameters the estimator ran with:
	// Pr(|Estimate − #Val| ≤ ε·#Val) ≥ 1 − δ.
	Eps, Delta float64
	// Samples is how many importance samples the estimator drew.
	Samples int
	// Cylinders is the number of match cylinders the union was split into.
	Cylinders int
	// TotalWeight is Σ_j |C_j|, the importance-sampling normalizer.
	TotalWeight *big.Int
	// Plan is the sampling plan (cylinder count, classification); its
	// payload is the cylinder set the estimator sampled from.
	Plan *plan.Plan
	// Wall is the wall-clock time of the estimate.
	Wall time.Duration
}

// MonteCarloResult re-exports the naïve Monte Carlo estimator's full
// report (estimate, satisfying fraction, sample tallies).
type MonteCarloResult = approx.MonteCarloResult

// LowerBoundResult re-exports the completion lower-bound sampler's full
// report (bound, samples drawn, distinct completions seen).
type LowerBoundResult = approx.LowerBoundResult

// MuResult reports Libkin's relative frequency µ_k(q, T) together with
// the counting Result it was derived from, so even this Section 7
// refinement carries a method, a plan and execution stats.
type MuResult struct {
	// Ratio is µ_k(q, T): the fraction of valuations over the uniform
	// domain {1, …, k} whose completion satisfies q.
	Ratio *big.Rat
	// K is the domain size the frequency was computed over.
	K int
	// Count is the underlying #Val result over the uniform domain
	// {1, …, k} — its Method and Stats describe how µ_k was computed.
	Count *Result
}
