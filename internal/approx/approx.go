// Package approx implements randomized approximation for the counting
// problems of the paper: a naïve Monte Carlo estimator, the Karp–Luby
// FPRAS for #Val(q) when q is a union of BCQs (realizing Corollary 5.3
// constructively), and heuristic under-approximations for counting
// completions — which provably cannot have an FPRAS unless NP = RP
// (Theorems 5.5/5.7), a failure mode the experiments demonstrate.
package approx

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/cylinder"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// MonteCarloResult reports a naïve Monte Carlo estimate.
type MonteCarloResult struct {
	Estimate  *big.Int
	Fraction  float64 // fraction of sampled valuations that satisfied q
	Samples   int
	Satisfied int
}

// MonteCarloValuations estimates #Val(q)(db) as (satisfying fraction) ×
// (total valuations) over uniformly sampled valuations. It is unbiased but
// NOT an FPRAS: when the satisfying fraction is exponentially small the
// relative error explodes — use KarpLubyValuations for guarantees.
//
// Sampling runs on the compiled sweep engine: each draw repositions a
// cursor (same distribution and RNG stream as core.ValuationSpace.Sample)
// and re-checks the compiled query in place, with no per-sample completion
// materialization.
func MonteCarloValuations(db *core.Database, q cq.Query, samples int, r *rand.Rand) (*MonteCarloResult, error) {
	return MonteCarloValuationsContext(context.Background(), db, q, samples, r)
}

// MonteCarloValuationsContext is MonteCarloValuations with cancellation:
// the sampling loop polls ctx every klCancelCheckInterval samples and
// returns the context's error once it is done. Cancellation polling never
// touches the RNG, so for a given seed the draws are identical to the
// uncancellable variant's.
func MonteCarloValuationsContext(ctx context.Context, db *core.Database, q cq.Query, samples int, r *rand.Rand) (*MonteCarloResult, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("approx: need a positive sample count, got %d", samples)
	}
	eng, err := sweep.Compile(db, q, sweep.ModeSample)
	if err != nil {
		return nil, err
	}
	total := eng.TotalSize()
	if total.Sign() == 0 {
		return &MonteCarloResult{Estimate: big.NewInt(0), Samples: samples}, nil
	}
	sat := 0
	cur := eng.NewCursor()
	for s := 0; s < samples; s++ {
		if s%klCancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cur.Sample(r)
		if cur.Matches() {
			sat++
		}
	}
	frac := float64(sat) / float64(samples)
	est := new(big.Int).Mul(total, big.NewInt(int64(sat)))
	est.Quo(est, big.NewInt(int64(samples)))
	return &MonteCarloResult{Estimate: est, Fraction: frac, Samples: samples, Satisfied: sat}, nil
}

// KarpLubyResult reports a Karp–Luby estimate together with diagnostics.
type KarpLubyResult struct {
	Estimate  *big.Int
	Samples   int
	Cylinders int
	// TotalWeight is Σ_j |C_j|, the importance-sampling normalizer.
	TotalWeight *big.Int
}

// KarpLubyValuations estimates #Val(q)(db) for a (union of) BCQ(s) with the
// Karp–Luby union-of-sets estimator over the query's match cylinders:
// sample a cylinder proportionally to its weight, sample a uniform
// valuation inside it, and average Z/cnt(ν) where cnt(ν) is the number of
// cylinders containing ν. The estimator is unbiased, and with
// n ≥ ⌈3·m·ln(2/δ)/ε²⌉ samples (m = number of cylinders) it is an
// (ε,δ)-approximation — a genuine FPRAS since m is polynomial in the data
// for a fixed query. Corollary 5.3 of the paper guarantees such a scheme
// exists; this is the classical construction.
func KarpLubyValuations(db *core.Database, q cq.Query, eps, delta float64, r *rand.Rand) (*KarpLubyResult, error) {
	return KarpLubyValuationsContext(context.Background(), db, q, eps, delta, r)
}

// klCancelCheckInterval is the number of samples the Karp–Luby loop draws
// between polls of the cancellation context.
const klCancelCheckInterval = 1024

// KarpLubyValuationsContext is KarpLubyValuations with cancellation: the
// sampling loop polls ctx every klCancelCheckInterval samples and returns
// the context's error once it is done.
func KarpLubyValuationsContext(ctx context.Context, db *core.Database, q cq.Query, eps, delta float64, r *rand.Rand) (*KarpLubyResult, error) {
	set, err := cylinder.Build(db, q)
	if err != nil {
		return nil, err
	}
	return KarpLubyCylinders(ctx, set, eps, delta, r)
}

// KarpLubyCylinders is KarpLubyValuationsContext over cylinders already
// built, such as the payload of an estimate plan. For a given seed the
// estimate is deterministic: every draw runs in the Set's slot order.
func KarpLubyCylinders(ctx context.Context, set *cylinder.Set, eps, delta float64, r *rand.Rand) (*KarpLubyResult, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("approx: ε must lie in (0,1), got %v", eps)
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("approx: δ must lie in (0,1), got %v", delta)
	}
	m := len(set.Cylinders)
	z := set.TotalWeight()
	if m == 0 || z.Sign() == 0 {
		return &KarpLubyResult{Estimate: big.NewInt(0), Cylinders: m, TotalWeight: z}, nil
	}
	// The bound grows as 1/ε²; past an int it cannot be drawn, and the
	// conversion would wrap to a negative count.
	bound := math.Ceil(3 * float64(m) * math.Log(2/delta) / (eps * eps))
	if !(bound < math.MaxInt) {
		return nil, fmt.Errorf("approx: ε = %g and δ = %g need %.3g samples over %d cylinders, more than an int holds; use a larger ε", eps, delta, bound, m)
	}
	n := int(bound)
	// hist[c] counts the samples contained in exactly c cylinders.
	hist := make([]int64, m+1)
	vals := make([]int32, set.Slots())
	for s := 0; s < n; s++ {
		if s%klCancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		set.SampleValuation(set.SampleIndex(r), r, vals)
		cnt := set.CountContaining(vals)
		if cnt <= 0 {
			return nil, fmt.Errorf("approx: internal error: sampled valuation outside every cylinder")
		}
		hist[cnt]++
	}
	// Σ_s 1/cnt(ν_s) = Σ_c hist[c]/c, as an exact rational.
	sum := new(big.Rat)
	for c, h := range hist {
		if h > 0 {
			sum.Add(sum, big.NewRat(h, int64(c)))
		}
	}
	est := new(big.Rat).Mul(sum, new(big.Rat).SetInt(z))
	est.Quo(est, new(big.Rat).SetInt64(int64(n)))
	// Round to nearest integer.
	num := new(big.Int).Mul(est.Num(), big.NewInt(2))
	num.Add(num, est.Denom())
	den := new(big.Int).Mul(est.Denom(), big.NewInt(2))
	rounded := new(big.Int).Quo(num, den)
	return &KarpLubyResult{Estimate: rounded, Samples: n, Cylinders: m, TotalWeight: z}, nil
}

// LowerBoundResult reports a completion lower bound together with the
// sampling diagnostics that produced it.
type LowerBoundResult struct {
	// Bound is the number of distinct satisfying completions observed —
	// the lower bound on #Comp(q)(db).
	Bound *big.Int
	// Samples is how many valuations were drawn.
	Samples int
	// Distinct is how many distinct completions (satisfying or not) the
	// samples produced; Samples − Distinct draws were duplicates.
	Distinct int
}

// CompletionsLowerBound samples valuations and counts the distinct
// completions seen: a (probabilistic) LOWER bound on #Comp(q)(db). The
// paper shows no FPRAS for counting completions exists unless NP = RP
// (Theorems 5.5 and 5.7); this heuristic under-approximation is the kind of
// fallback Section 8 suggests, and carries no guarantee of closeness.
//
// Deduplication uses the sweep engine's incremental 128-bit completion
// hash; hash buckets compare exact canonical encodings, so a collision
// cannot inflate the bound.
func CompletionsLowerBound(db *core.Database, q cq.Query, samples int, r *rand.Rand) (*big.Int, error) {
	res, err := CompletionsLowerBoundContext(context.Background(), db, q, samples, r)
	if err != nil {
		return nil, err
	}
	return res.Bound, nil
}

// CompletionsLowerBoundContext is CompletionsLowerBound with cancellation
// and full sampling diagnostics. Cancellation polling never touches the
// RNG, so for a given seed the bound is identical to the uncancellable
// variant's.
func CompletionsLowerBoundContext(ctx context.Context, db *core.Database, q cq.Query, samples int, r *rand.Rand) (*LowerBoundResult, error) {
	if samples <= 0 {
		return nil, fmt.Errorf("approx: need a positive sample count, got %d", samples)
	}
	eng, err := sweep.Compile(db, q, sweep.ModeCompletions)
	if err != nil {
		return nil, err
	}
	if eng.Size().Sign() == 0 {
		return &LowerBoundResult{Bound: big.NewInt(0), Samples: samples}, nil
	}
	seen := make(map[sweep.Hash128][]*sweep.Snapshot)
	cur := eng.NewCursor()
	count := int64(0)
	distinct := 0
	for s := 0; s < samples; s++ {
		if s%klCancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cur.Sample(r)
		h := cur.CompletionHash()
		bucket := seen[h]
		dup := false
		for _, snap := range bucket {
			if cur.EqualsSnapshot(snap) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(bucket, cur.Snapshot())
		distinct++
		if cur.Matches() {
			count++
		}
	}
	return &LowerBoundResult{Bound: big.NewInt(count), Samples: samples, Distinct: distinct}, nil
}
