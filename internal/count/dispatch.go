package count

import (
	"math/big"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// Method identifies which algorithm produced a count. For rewrite plans
// the method is the plan's compact operator signature, e.g.
// "complement(exact/theorem-3.9)" or "factor(brute-force × brute-force)".
type Method string

// The leaf counting methods (the operator names of the plan layer).
const (
	MethodSingleOccurrence Method = Method(plan.OpSingleOccurrence)
	MethodCodd             Method = Method(plan.OpCodd)
	MethodUniformVal       Method = Method(plan.OpUniformVal)
	MethodUniformComp      Method = Method(plan.OpUniformComp)
	MethodCylinderIE       Method = Method(plan.OpCylinderIE)
	MethodBruteForce       Method = Method(plan.OpSweep)
)

// Explain compiles (db, q, kind) into the costed, explainable plan the
// counting dispatchers execute: which algorithm answers each sub-problem,
// every algorithm tried before it with the precondition that failed, the
// Table 1 classification where it applies, and the estimated cost.
func Explain(db *core.Database, q cq.Query, kind classify.CountingKind, opts *Options) (*plan.Plan, error) {
	po := PlanOptions(opts)
	return plan.Build(db, q, kind, &po, nil)
}

// CountValuations computes #Val(q)(db) by compiling a plan and executing
// it: one of the paper's polynomial-time algorithms when the query avoids
// the corresponding hard patterns (Theorems 3.6, 3.7 and 3.9);
// independent-subquery factorization when the query splits into parts
// over disjoint variables and nulls; inclusion–exclusion over match
// cylinders when the query is a (union of) BCQ(s) with few cylinders —
// exact even when the valuation space is astronomically large; and
// guarded brute-force enumeration otherwise.
func CountValuations(db *core.Database, q cq.Query, opts *Options) (*big.Int, Method, error) {
	p, err := Explain(db, q, classify.Valuations, opts)
	if err != nil {
		return nil, "", err
	}
	n, _, err := ExecutePlan(db, p, opts, nil, nil)
	return n, Method(p.Method()), err
}

// CountCompletions computes #Comp(q)(db) the same way: the polynomial
// algorithm of Theorem 4.6 when the database is uniform over a unary
// schema, and guarded brute-force enumeration with completion
// deduplication otherwise.
func CountCompletions(db *core.Database, q cq.Query, opts *Options) (*big.Int, Method, error) {
	p, err := Explain(db, q, classify.Completions, opts)
	if err != nil {
		return nil, "", err
	}
	n, _, err := ExecutePlan(db, p, opts, nil, nil)
	return n, Method(p.Method()), err
}
