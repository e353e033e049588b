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
// mix the two.
func ExecutePlan(db *core.Database, p *plan.Plan, opts *Options) (*big.Int, error) {
	if pdb := p.Database(); pdb != nil && pdb != db {
		return nil, fmt.Errorf("count: the plan was compiled from a different database; rebuild it with Explain")
	}
	// A plan with several sweep nodes (a factorization) reports progress
	// through a normalizing aggregator, preserving the forward-only
	// contract of Options.Progress across the sequential sweeps.
	if s := countSweepNodes(p.Root); s > 1 && opts != nil && opts.Progress != nil {
		agg := &multiSweepProgress{sweeps: s, fn: opts.Progress}
		o := *opts
		o.Progress = agg.report
		opts = &o
	}
	return execNode(db, p.Root, opts)
}

// countSweepNodes counts the OpSweep nodes of the subtree that run: a
// part whose count the plan reused runs nothing.
func countSweepNodes(n *plan.Node) int {
	if n.Reused != nil {
		return 0
	}
	s := 0
	if n.Op == plan.OpSweep {
		s++
	}
	for _, c := range n.Children {
		s += countSweepNodes(c)
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

func execNode(db *core.Database, n *plan.Node, opts *Options) (*big.Int, error) {
	switch n.Op {
	case plan.OpComplement:
		inner, err := execNode(db, n.Children[0], opts)
		if err != nil {
			return nil, err
		}
		total, err := db.NumValuations()
		if err != nil {
			return nil, err
		}
		return total.Sub(total, inner), nil

	case plan.OpFactor:
		return execFactor(db, n, opts, false)

	case plan.OpFactorUnion:
		return execFactor(db, n, opts, true)

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

// execFactor combines the counts of independent sub-plans. Writing
// total = ∏ |dom(⊥)| over every null of db, independence over disjoint
// null sets gives exactly
//
//	product (q_1 ∧ … ∧ q_k):  #Val(q) = ∏ #Val(q_i)  /  total^(k−1)
//	union   (Q_1 ∨ … ∨ Q_k):  #Val(q) = total − ∏ (total − #Val(Q_g)) / total^(k−1)
//
// Both divisions are exact; a failed exactness check would mean the
// planner factored a dependent query and is reported as an internal
// error rather than silently rounded.
//
// A part the planner took from a factor memo carries its count
// (plan.Node.Reused), which is used as it is: this is what makes a
// recount after a write to one part run only that part. Every other part
// runs, and when its node carries a memo key and opts a FactorMemo, its
// raw count is stored under that key; the union transform is applied on
// top.
func execFactor(db *core.Database, n *plan.Node, opts *Options, union bool) (*big.Int, error) {
	total, err := db.NumValuations()
	if err != nil {
		return nil, err
	}
	// No valuations at all (an empty domain): every count is zero.
	if total.Sign() == 0 {
		return big.NewInt(0), nil
	}
	product := big.NewInt(1)
	for _, c := range n.Children {
		v := c.Reused
		if v == nil {
			var err error
			if v, err = execNode(db, c, opts); err != nil {
				return nil, err
			}
			if c.MemoKey != "" && opts != nil && opts.FactorMemo != nil {
				opts.FactorMemo.StoreFactor(c.MemoKey, c, v)
			}
		}
		if union {
			v = new(big.Int).Sub(total, v)
		}
		product.Mul(product, v)
	}
	den := new(big.Int).Exp(total, big.NewInt(int64(len(n.Children)-1)), nil)
	quo, rem := new(big.Int).QuoRem(product, den, new(big.Int))
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("count: internal error: factorized counts of %v do not divide total^%d — the components were not independent",
			n.Query, len(n.Children)-1)
	}
	if union {
		return new(big.Int).Sub(total, quo), nil
	}
	return quo, nil
}
