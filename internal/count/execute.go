package count

import (
	"fmt"
	"math/big"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// The plan executor: internal/plan decides, this file computes. Each node
// type maps onto one of the counting algorithms of this package (or a
// big-integer combination of its children's results), so a plan rendered
// by EXPLAIN is exactly what runs.

// ExecutePlan computes the count a plan describes. Runtime options
// (workers, context, progress) come from opts; the algorithm selection
// and the prebuilt payloads (cylinder sets, sweep engines) come from the
// plan. db must be the database the plan was compiled from: the payloads
// embed its facts, so executing against another database would silently
// mix the two. total is db's valuation total when the caller keeps it (a
// session does), and nil otherwise: complement and factorization nodes
// then compute it from db, once per execution, and fail on an invalid
// database as db.NumValuations does.
func ExecutePlan(db *core.Database, p *plan.Plan, opts *Options, total *big.Int) (*big.Int, error) {
	if pdb := p.Database(); pdb != nil && pdb != db {
		return nil, fmt.Errorf("count: the plan was compiled from a different database; rebuild it with Explain")
	}
	// A plan with several sweep nodes that run (a factorization) reports
	// progress through a normalizing aggregator, preserving the
	// forward-only contract of Options.Progress across the sequential
	// sweeps.
	if opts != nil && opts.Progress != nil {
		if s := countSweepNodes(p.Root, opts.FactorMemo); s > 1 {
			agg := &multiSweepProgress{sweeps: s, fn: opts.Progress}
			o := *opts
			o.Progress = agg.report
			opts = &o
		}
	}
	e := &executor{db: db, opts: opts, total: total}
	return e.node(p.Root)
}

// executor runs the nodes of one plan over db. total is db's valuation
// total, nil until a node first needs it; it is shared and never
// mutated.
type executor struct {
	db    *core.Database
	opts  *Options
	total *big.Int
}

// valuations returns db's valuation total.
func (e *executor) valuations() (*big.Int, error) {
	if e.total == nil {
		total, err := e.db.NumValuations()
		if err != nil {
			return nil, err
		}
		e.total = total
	}
	return e.total, nil
}

// memoCount returns the count memo serves for part n of a factorization:
// nil when memo is nil, n carries no memo key or memo does not hold it.
func memoCount(memo FactorMemo, n *plan.Node) *big.Int {
	if memo == nil || n.MemoKey == "" {
		return nil
	}
	v, _ := memo.LookupFactor(n.MemoKey)
	return v
}

// countSweepNodes counts the OpSweep nodes of the subtree that run: a
// part whose count the plan reused, or memo serves, runs nothing.
func countSweepNodes(n *plan.Node, memo FactorMemo) int {
	if n.Reused != nil || memoCount(memo, n) != nil {
		return 0
	}
	s := 0
	if n.Op == plan.OpSweep {
		s++
	}
	for _, c := range n.Children {
		s += countSweepNodes(c, memo)
	}
	return s
}

// progressUnits is the virtual shard total a multi-sweep plan reports
// progress in: sweeps have different shard counts, so their fractions
// are normalized onto one fixed scale.
const progressUnits = 1000

// multiSweepProgress folds the per-sweep shard notifications of a
// multi-sweep plan into one monotone (done, total) stream: sweep i of s
// occupies the fraction window [i/s, (i+1)/s). Sweeps run sequentially,
// so no lock is needed beyond the executor's own ordering.
type multiSweepProgress struct {
	sweeps   int
	finished int
	fn       func(done, total int)
}

func (m *multiSweepProgress) report(done, total int) {
	if total <= 0 || m.finished >= m.sweeps {
		return
	}
	frac := (float64(m.finished) + float64(done)/float64(total)) / float64(m.sweeps)
	m.fn(int(frac*progressUnits), progressUnits)
	if done >= total {
		m.finished++
	}
}

// node computes the count of plan node n.
func (e *executor) node(n *plan.Node) (*big.Int, error) {
	db, opts := e.db, e.opts
	switch n.Op {
	case plan.OpComplement:
		inner, err := e.node(n.Children[0])
		if err != nil {
			return nil, err
		}
		total, err := e.valuations()
		if err != nil {
			return nil, err
		}
		return new(big.Int).Sub(total, inner), nil

	case plan.OpFactor:
		return e.factor(n, false)

	case plan.OpFactorUnion:
		return e.factor(n, true)

	case plan.OpSingleOccurrence:
		return ValuationsSingleOccurrence(db, n.Query.(*cq.BCQ))

	case plan.OpCodd:
		return ValuationsCodd(db, n.Query.(*cq.BCQ))

	case plan.OpUniformVal:
		return ValuationsUniform(db, n.Query.(*cq.BCQ))

	case plan.OpUniformComp:
		return CompletionsUniform(db, n.Query.(*cq.BCQ))

	case plan.OpCylinderIE:
		if n.Cylinders == nil {
			return nil, missingPayload(n)
		}
		return n.Cylinders.UnionCountParallel(opts.context(), opts.workers())

	case plan.OpSweep:
		if n.Engine == nil {
			return nil, missingPayload(n)
		}
		// The planner compiled the engine to cost the node; reuse it so a
		// planned sweep compiles the database exactly once. The guard is
		// applied here (compileGuarded is bypassed), with the node's
		// rejected decisions explaining what was already tried.
		o := opts.withRejected(n.RejectedNotes())
		if err := guardEngine(n.Engine, o); err != nil {
			return nil, err
		}
		res, _, err := sweepEngine(n.Engine, o, false)
		return res, err

	default:
		return nil, fmt.Errorf("count: plan node %q is not executable here", n.Op)
	}
}

// missingPayload is the error of a cylinder or sweep node that lacks its
// prebuilt payload: a stripped plan (plan.StripPayloads) renders but
// does not execute, and a sweep whose engine failed to compile says why
// in its cost note.
func missingPayload(n *plan.Node) error {
	return fmt.Errorf("count: plan node %q has no execution payload (%s); rebuild the plan", n.Op, n.Cost.Note)
}

// factor combines the counts of independent sub-plans. Writing
// total = ∏ |dom(⊥)| over every null of db, independence over disjoint
// null sets gives exactly
//
//	product (q_1 ∧ … ∧ q_k):  #Val(q) = ∏ #Val(q_i)  /  total^(k−1)
//	union   (Q_1 ∨ … ∨ Q_k):  #Val(q) = total − ∏ (total − #Val(Q_g)) / total^(k−1)
//
// The products are folded in one part at a time, dividing by total at
// each step: after part i the running value counts the valuations that
// satisfy the first i parts (or none of the first i groups), so every
// division is exact and the numbers stay the size of total. A failed
// exactness check would mean the planner factored a dependent query and
// is reported as an internal error rather than silently rounded.
//
// A part the planner took from a factor memo carries its count
// (plan.Node.Reused), and a part whose memo key opts.FactorMemo holds
// takes its count from there: either is used as it is, which is what
// makes a recount after a write to one part run only that part. Every
// other part runs, and when its node carries a memo key and opts a
// FactorMemo, its raw count is stored under that key; the union transform
// is applied on top.
func (e *executor) factor(n *plan.Node, union bool) (*big.Int, error) {
	total, err := e.valuations()
	if err != nil {
		return nil, err
	}
	// No valuations at all (an empty domain): every count is zero.
	if total.Sign() == 0 {
		return big.NewInt(0), nil
	}
	var memo FactorMemo
	if e.opts != nil {
		memo = e.opts.FactorMemo
	}
	acc := new(big.Int)
	var part, prod, rem big.Int
	for i, c := range n.Children {
		v := c.Reused
		if v == nil {
			v = memoCount(memo, c)
		}
		if v == nil {
			var err error
			if v, err = e.node(c); err != nil {
				return nil, err
			}
			if c.MemoKey != "" && memo != nil {
				memo.StoreFactor(c.MemoKey, c, v)
			}
		}
		if union {
			v = part.Sub(total, v)
		}
		if i == 0 {
			acc.Set(v)
			continue
		}
		prod.Mul(acc, v)
		if acc.QuoRem(&prod, total, &rem); rem.Sign() != 0 {
			return nil, fmt.Errorf("count: internal error: factorized counts of %v do not divide total^%d — the components were not independent",
				n.Query, i)
		}
	}
	if union {
		return acc.Sub(total, acc), nil
	}
	return acc, nil
}
