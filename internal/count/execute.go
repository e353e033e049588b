package count

import (
	"fmt"
	"math/big"
	"slices"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// The plan executor: internal/plan decides, this file computes. Each node
// type maps onto one of the counting algorithms of this package (or a
// big-integer combination of its children's results), so a plan rendered
// by EXPLAIN is exactly what runs.

// ExecutePlan computes the count a plan describes and reports what it
// ran. Runtime options (workers, context, progress) come from opts; the
// algorithm selection and the prebuilt payloads (cylinder sets, sweep
// engines) come from the plan. db must be the database the plan was
// compiled from: the payloads embed its facts, so executing against
// another database would silently mix the two. memo, when non-nil, is
// the session's factor memo: it serves and receives the counts of the
// factorization parts that carry a memo key, which only a plan built
// with a plan.Memo has. total is db's valuation total when the caller
// keeps it (a session does), and nil otherwise: complement and
// factorization nodes then compute it from db, once per execution, and
// fail on an invalid database as db.NumValuations does.
func ExecutePlan(db *core.Database, p *plan.Plan, opts *Options, memo FactorMemo, total *big.Int) (*big.Int, Record, error) {
	if pdb := p.Database(); pdb != nil && pdb != db {
		return nil, Record{}, fmt.Errorf("count: the plan was compiled from a different database; rebuild it with Explain")
	}
	e := &executor{db: db, opts: opts, memo: memo, total: total}
	// A plan with several sweep nodes (a factorization) reports progress
	// through a normalizing aggregator, preserving the forward-only
	// contract of Options.Progress across the sequential sweeps.
	if opts != nil && opts.Progress != nil {
		if s := sweepNodes(p.Root); s > 1 {
			e.progress = &multiSweepProgress{sweeps: s, fn: opts.Progress}
			o := *opts
			o.Progress = e.progress.report
			e.opts = &o
		}
	}
	n, err := e.node(p.Root)
	if err != nil {
		return nil, Record{}, err
	}
	return n, e.rec, nil
}

// Record reports what one plan execution ran: how many factorization
// parts took their count from the factor memo instead of running, and,
// over the sweep nodes that ran, the summed size of their enumerated
// spaces (nil when none ran), the irrelevant nulls they factored out and
// the product of the factored-out terms ∏ |dom(⊥)| (nil when none was).
type Record struct {
	FactorsReused   int
	SweptValuations *big.Int
	PrunedNulls     int
	PruneMultiplier *big.Int
}

// swept adds a sweep that ran on eng to the record.
func (r *Record) swept(eng *sweep.Engine) {
	if r.SweptValuations == nil {
		r.SweptValuations = new(big.Int)
	}
	r.SweptValuations.Add(r.SweptValuations, eng.Size())
	r.PrunedNulls += eng.Pruned()
	if eng.Pruned() > 0 {
		if r.PruneMultiplier == nil {
			r.PruneMultiplier = big.NewInt(1)
		}
		r.PruneMultiplier.Mul(r.PruneMultiplier, eng.Multiplier())
	}
}

// executor runs the nodes of one plan over db. total is db's valuation
// total, nil until a node first needs it; it is shared and never
// mutated. memo is the session's factor memo, nil without one.
// progress is the multi-sweep aggregator, nil unless opts has a progress
// hook and the plan several sweep nodes.
type executor struct {
	db       *core.Database
	opts     *Options
	memo     FactorMemo
	total    *big.Int
	progress *multiSweepProgress
	rec      Record
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

// sweepNodes counts the sweep nodes of n's subtree.
func sweepNodes(n *plan.Node) int {
	s := 0
	if n.Op == plan.OpSweep {
		s++
	}
	for _, c := range n.Children {
		s += sweepNodes(c)
	}
	return s
}

// progressUnits is the virtual shard total a multi-sweep plan reports
// progress in: sweeps have different shard counts, so their fractions
// are normalized onto one fixed scale.
const progressUnits = 1000

// multiSweepProgress folds the per-sweep shard notifications of a
// multi-sweep plan into one monotone (done, total) stream: sweep i of s
// occupies the fraction window [i/s, (i+1)/s), and the windows of a part
// the memo serves close at once (skip). Sweeps run sequentially, so no
// lock is needed beyond the executor's own ordering.
type multiSweepProgress struct {
	sweeps   int
	finished int
	fn       func(done, total int)
}

func (m *multiSweepProgress) report(done, total int) {
	if total <= 0 || m.finished >= m.sweeps {
		return
	}
	m.emit(float64(m.finished) + float64(done)/float64(total))
	if done >= total {
		m.finished++
	}
}

// skip closes the windows of n sweeps that will not run and reports the
// fraction reached.
func (m *multiSweepProgress) skip(n int) {
	if n == 0 || m.finished >= m.sweeps {
		return
	}
	m.finished = min(m.finished+n, m.sweeps)
	m.emit(float64(m.finished))
}

// emit reports windows, the closed windows plus the fraction of the
// open one, on the normalized scale.
func (m *multiSweepProgress) emit(windows float64) {
	m.fn(int(windows/float64(m.sweeps)*progressUnits), progressUnits)
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
		if err := guardEngine(n.Engine, opts, n); err != nil {
			return nil, err
		}
		res, _, err := sweepEngine(n.Engine, opts, false)
		if err != nil {
			return nil, err
		}
		e.rec.swept(n.Engine)
		return res, nil

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
// part counts each child, from the factor memo when it can; the union
// transform is applied on top.
func (e *executor) factor(n *plan.Node, union bool) (*big.Int, error) {
	total, err := e.valuations()
	if err != nil {
		return nil, err
	}
	// No valuations at all (an empty domain): every count is zero.
	if total.Sign() == 0 {
		return big.NewInt(0), nil
	}
	acc := new(big.Int)
	var miss, prod, rem big.Int
	for i, c := range n.Children {
		v, err := e.part(c)
		if err != nil {
			return nil, err
		}
		if union {
			v = miss.Sub(total, v)
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

// part computes the #Val count of factorization part c. A part whose
// memo key the memo holds takes its count from there and runs nothing:
// that is what makes a recount after a write to one part run only that
// part. Any other keyed part runs, and its count is stored under its key.
// A part the planner took from the memo is a bare description; if its
// count has left the memo since (a cached plan run after an eviction),
// the part is planned afresh and run.
func (e *executor) part(c *plan.Node) (*big.Int, error) {
	if e.memo == nil || c.MemoKey == "" {
		return e.node(c)
	}
	if v, ok := e.memo.LookupFactor(c.MemoKey); ok {
		e.rec.FactorsReused++
		if e.progress != nil {
			e.progress.skip(sweepNodes(c))
		}
		return v, nil
	}
	run := c
	if lacksPayload(c) {
		po := PlanOptions(e.opts)
		p, err := plan.Build(e.db, c.Query, classify.Valuations, &po, nil)
		if err != nil {
			return nil, err
		}
		run = p.Root
	}
	v, err := e.node(run)
	if err != nil {
		return nil, err
	}
	e.memo.StoreFactor(c.MemoKey, c, v)
	return v, nil
}

// lacksPayload reports whether a cylinder or sweep node of n's subtree
// has no payload to execute on.
func lacksPayload(n *plan.Node) bool {
	return n.Op == plan.OpCylinderIE && n.Cylinders == nil || n.Op == plan.OpSweep && n.Engine == nil ||
		slices.ContainsFunc(n.Children, lacksPayload)
}
