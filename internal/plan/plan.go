// Package plan compiles a counting problem — a database, a Boolean query
// and a counting kind (#Val or #Comp) — into an explainable, costed plan
// DAG before anything is executed.
//
// The paper's Table 1 dichotomies (Arenas, Barceló and Monet, PODS 2020)
// make algorithm *selection* the heart of the system: each node of a plan
// records which algorithm answers its sub-problem, and — in structured
// per-node decision records — every algorithm that was tried first, the
// paper theorem behind it, and the precise precondition that failed. The
// node types cover the complement identity for negations, the four
// polynomial-time algorithms of Theorems 3.6, 3.7, 3.9 and 4.6, cylinder
// inclusion–exclusion, the compiled-sweep brute-force fallback, the
// Karp–Luby sampling estimate, and one genuine rewrite in the spirit of
// the Kenig–Suciu dichotomy-by-rewriting tradition: independent-subquery
// factorization, which splits a query whose parts share no variables and
// touch disjoint nulls into sub-problems whose relative counts multiply,
// so the swept space drops from the product over all relevant nulls to
// the maximum over the components.
//
// Plans are pure descriptions plus prebuilt read-only payloads (the
// cylinder set of an inclusion–exclusion node, the engine of a sweep);
// once Build returns, nothing writes to a plan, so any number of
// goroutines may execute and render it. A plan built with a Memo may
// also carry, on a part of a factorization, that part's count taken from
// the memo (Node.Reused): it is fixed when Build returns like everything
// else, and the plan renders exactly as one built without the memo.
// Execution lives in internal/count, which walks the DAG. The same
// rendered plan backs `incdb explain`, POST /v1/explain and the root
// Explain API.
package plan

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/cylinder"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Op identifies the algorithm (or rewrite) a plan node applies. The leaf
// operators keep the method strings the pre-planner dispatcher reported,
// so callers matching on them keep working.
type Op string

const (
	// OpComplement answers #Val(¬q) as total − #Val(q); its single child
	// is the plan for q. Valuations partition, so ¬q is exactly as easy
	// as q (Theorem 6.3 territory is about completions, not this).
	OpComplement Op = "complement"
	// OpFactor multiplies the relative counts of independent sub-queries:
	// a conjunction whose components share no variables and touch
	// disjoint nulls satisfies #Val(q)/total = ∏ #Val(q_i)/total.
	OpFactor Op = "factor/independent-product"
	// OpFactorUnion is the union form: for disjunct groups over disjoint
	// nulls, 1 − #Val(q)/total = ∏ (1 − #Val(Q_g)/total).
	OpFactorUnion Op = "factor/independent-union"
	// OpSingleOccurrence is the polynomial algorithm of Theorem 3.6.
	OpSingleOccurrence Op = "exact/theorem-3.6"
	// OpCodd is the polynomial algorithm of Theorem 3.7 for Codd tables.
	OpCodd Op = "exact/theorem-3.7"
	// OpUniformVal is the polynomial algorithm of Theorem 3.9 for uniform
	// databases.
	OpUniformVal Op = "exact/theorem-3.9"
	// OpUniformComp is the polynomial algorithm of Theorem 4.6 for
	// counting completions over uniform unary schemas.
	OpUniformComp Op = "exact/theorem-4.6"
	// OpCylinderIE counts satisfying valuations exactly by
	// inclusion–exclusion over match cylinders (2^m subsets).
	OpCylinderIE Op = "exact/cylinder-inclusion-exclusion"
	// OpSweep is the guarded brute-force sweep on the compiled engine of
	// internal/sweep (with completion dedup for #Comp).
	OpSweep Op = "brute-force"
	// OpKarpLuby is the sampling FPRAS of Corollary 5.3 (estimates only).
	OpKarpLuby Op = "approx/karp-luby"
)

// DefaultMaxValuations is the default brute-force guard: the largest
// enumerated space a sweep node may cost before execution refuses it.
const DefaultMaxValuations = 1 << 22

// Options configures planning. The zero value (and nil) applies the
// defaults; Normalized spells them out.
type Options struct {
	// MaxValuations is the brute-force guard a sweep node will be held
	// to; 0 means DefaultMaxValuations. Planning never fails on it — the
	// plan records that its sweep exceeds the guard — execution does.
	MaxValuations int64

	// Compile is the engine variant the plan's sweep nodes compile. The
	// zero value is the optimized engine; its escape hatches pin the
	// scalar membership path or the query's own atom order, with counts
	// identical either way.
	Compile sweep.CompileOptions
}

// Normalized returns o with every default applied, so options that plan
// identically compare equal: the guard is DefaultMaxValuations unless
// positive.
func (o *Options) Normalized() Options {
	n := Options{MaxValuations: DefaultMaxValuations}
	if o == nil {
		return n
	}
	n.Compile = o.Compile
	if o.MaxValuations > 0 {
		n.MaxValuations = o.MaxValuations
	}
	return n
}

// Decision is one structured entry of a node's decision record: an
// algorithm the planner considered for the node's sub-problem, the paper
// result behind it, and — when it was passed over — the precise
// precondition that failed.
type Decision struct {
	// Algorithm names what was considered ("Theorem 3.6
	// (single-occurrence)", "independent-subquery factorization", …).
	Algorithm string
	// Op is the operator the algorithm would have planned.
	Op Op
	// Reference cites the paper result the algorithm implements.
	Reference string
	// Accepted reports whether the node uses this algorithm.
	Accepted bool
	// Reason is the precondition that failed (for rejections) or why the
	// algorithm applies (for the accepted entry).
	Reason string
}

// Cost is a node's pre-execution cost estimate.
type Cost struct {
	// Space is the dominating enumeration size: the post-pruning swept
	// space for OpSweep (an upper bound on the leaves a #Val sweep
	// evaluates, since satisfied witness blocks are counted unvisited),
	// the number of subset terms (2^m) for OpCylinderIE, the cylinder
	// count for OpKarpLuby. Nil for closed-form and rewrite nodes.
	Space *big.Int
	// TotalSpace is the full valuation space behind a sweep node, before
	// relevant-null pruning (nil elsewhere).
	TotalSpace *big.Int
	// PrunedNulls is how many irrelevant nulls the sweep factors out.
	PrunedNulls int
	// ExceedsGuard reports that Space is beyond the brute-force guard the
	// plan was built under: executing this node will fail unless the
	// guard is raised.
	ExceedsGuard bool
	// Note is a human-readable summary of the cost shape.
	Note string
}

// Node is one operator of a plan DAG: the sub-problem it answers (Query ×
// Kind), the operator chosen for it, the decision record of everything
// tried on the way there, its cost, and — for rewrites — the child plans
// whose results it combines.
type Node struct {
	Op   Op
	Kind classify.CountingKind
	// Query is the sub-query this node answers.
	Query cq.Query
	// Decisions records each algorithm tried for this node in trial
	// order, ending with the accepted one.
	Decisions []Decision
	// Class is the Table 1 classification of the sub-problem when Query
	// is a well-formed sjfBCQ (nil otherwise): the dichotomy verdict that
	// drives — and explains — the selection below it.
	Class *classify.Result
	// Children are the sub-plans of rewrite nodes (complement,
	// factorization), in combination order.
	Children []*Node
	// Cost estimates the work executing this node (excluding children).
	Cost Cost

	// Cylinders is the prebuilt payload of an OpCylinderIE or OpKarpLuby
	// node.
	Cylinders *cylinder.Set

	// Engine is the prebuilt payload of an OpSweep node: the compiled
	// sweep engine whose size produced the node's cost, reused by the
	// executor so a planned sweep compiles the database exactly once.
	// Read-only after planning and safe for concurrent cursors. Nil when
	// the compile failed; Cost.Note then says why.
	Engine *sweep.Engine

	// MemoKey is set on each part of a factorization planned with a
	// Memo: the key the memo looked the part up under. The executor
	// stores the count of a part it computes under this key.
	MemoKey string

	// Reused is the count of a factorization part that the Memo served
	// at planning, at the valuation total of the plan's database: the
	// executor returns it instead of running the node, which then holds
	// no payloads. Nil elsewhere. Render, JSON and Method never read it
	// (nor MemoKey), and StripPayloads drops both.
	Reused *big.Int
}

// Plan is a compiled counting problem: the root node answers the original
// query under the plan's kind. A plan is bound to the database it was
// compiled from — its node payloads (cylinder sets, sweep engines) embed
// that database's facts.
type Plan struct {
	Kind  classify.CountingKind
	Query cq.Query
	Root  *Node

	db *core.Database
}

// Database returns the database the plan was compiled from (nil on a
// StripPayloads copy). Executing a plan against any other database would
// silently mix the embedded payloads with the other database's totals;
// the executor rejects it.
func (p *Plan) Database() *core.Database { return p.db }

// Method renders the plan's operator tree as a compact method signature,
// e.g. "complement(exact/cylinder-inclusion-exclusion)" or
// "factor(brute-force × exact/theorem-3.9)". Leaf signatures equal the
// pre-planner dispatcher's method strings.
func (p *Plan) Method() string { return p.Root.Method() }

// StripPayloads returns a copy of the plan without its execution
// payloads — the compiled sweep engines and prebuilt cylinder sets,
// which embed the database's interned fact arenas — and without its
// reference to the database itself, which for a small query outweighs
// the whole description. The copy renders and serializes identically
// (Render/JSON/Method never read the payloads) but does not execute:
// the executor refuses a cylinder or sweep node without its payload. It
// is what a long-lived cache should retain: the explanation, not the
// compiled state or the data.
func (p *Plan) StripPayloads() *Plan {
	return &Plan{Kind: p.Kind, Query: p.Query, Root: p.Root.stripped()}
}

// stripped returns n's subtree without payloads, memo keys or reused
// counts. Nodes are immutable, so a subtree that holds none of them is
// shared rather than copied: the stripped plans of many factorizations
// share the descriptions their parts took from a memo.
func (n *Node) stripped() *Node {
	if n == nil {
		return nil
	}
	var kids []*Node
	for i, ch := range n.Children {
		s := ch.stripped()
		if s != ch && kids == nil {
			kids = slices.Clone(n.Children)
		}
		if kids != nil {
			kids[i] = s
		}
	}
	if kids == nil && n.Engine == nil && n.Cylinders == nil && n.MemoKey == "" && n.Reused == nil {
		return n
	}
	c := *n
	c.Engine, c.Cylinders, c.MemoKey, c.Reused = nil, nil, "", nil
	if kids != nil {
		c.Children = kids
	}
	return &c
}

// Description returns what a Memo may keep of factorization part n for a
// later plan over the same content: n's subtree without payloads, or nil
// when it holds a sweep node. A sweep's cost block and membership choice
// read the whole database (its total space, the nulls it prunes, its
// constants), not only the part's facts and domains, so a swept part is
// planned afresh and only its count is reused.
func (n *Node) Description() *Node {
	if n.sweeps() {
		return nil
	}
	return n.stripped()
}

// sweeps reports whether n's subtree holds a sweep node.
func (n *Node) sweeps() bool {
	if n.Op == OpSweep {
		return true
	}
	for _, c := range n.Children {
		if c.sweeps() {
			return true
		}
	}
	return false
}

// Method renders the node's operator subtree as a compact signature.
func (n *Node) Method() string {
	switch n.Op {
	case OpComplement:
		return "complement(" + n.Children[0].Method() + ")"
	case OpFactor, OpFactorUnion:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = c.Method()
		}
		if n.Op == OpFactor {
			return "factor(" + strings.Join(parts, " × ") + ")"
		}
		return "factor-union(" + strings.Join(parts, " ∪ ") + ")"
	default:
		return string(n.Op)
	}
}

// RejectedNotes returns the reasons of the node's rejected decisions, in
// trial order — the structured replacement of the dispatcher's free-form
// notes, used by the brute-force guard to explain what was already tried.
func (n *Node) RejectedNotes() []string {
	var notes []string
	for _, d := range n.Decisions {
		if !d.Accepted {
			notes = append(notes, d.Reason)
		}
	}
	return notes
}

// Memo serves the parts of #Val factorizations from earlier plans over
// the same content. Its keys must name everything a part's plan and
// count depend on: the part as written, the planning options, whether
// the table is Codd, the facts of the part's relations and the domains
// of their nulls. Then a part a write left untouched costs one key and
// one lookup instead of a cylinder build, a classification and a
// factorization analysis.
type Memo interface {
	// Component looks up part q of a factorization of the database being
	// planned. key names q's content, "" when q cannot be memoized; the
	// executor stores q's count under it. count, when non-nil, is q's
	// #Val at the database's current valuation total. desc, when
	// non-nil, is the stored Description of q's plan, and count is then
	// non-nil too.
	Component(q cq.Query) (key string, desc *Node, count *big.Int)
}

// Build compiles (db, q, kind) into a plan under opts. It fails only on
// an invalid database; an inexecutable problem (e.g. a sweep beyond the
// guard) still plans, with the failure recorded in the node's cost.
// memo, when non-nil, serves the parts of a #Val factorization: a part
// it holds a description and count for is that description with the
// count as Node.Reused; a part it holds only a count for is planned and
// takes the count; any other part is planned and carries its MemoKey.
func Build(db *core.Database, q cq.Query, kind classify.CountingKind, opts *Options, memo Memo) (*Plan, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	b := &builder{db: db, opts: opts.Normalized(), memo: memo}
	var root *Node
	if kind == classify.Valuations {
		root = b.buildVal(q)
	} else {
		root = b.buildComp(q)
	}
	return &Plan{Kind: kind, Query: q, Root: root, db: db}, nil
}

// BruteOnly compiles a plan that bypasses every fast path and sweeps: the
// plan of a ForceBrute job.
func BruteOnly(db *core.Database, q cq.Query, kind classify.CountingKind, opts *Options) (*Plan, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	b := &builder{db: db, opts: opts.Normalized()}
	n := &Node{Kind: kind, Query: q}
	n.Class = classification(db, q, kind)
	n.Decisions = append(n.Decisions, Decision{
		Algorithm: "forced brute force",
		Op:        OpSweep,
		Reference: "Section 2 (definitions)",
		Accepted:  true,
		Reason:    "every fast path was bypassed on request (force_brute)",
	})
	b.finishSweep(n, q)
	return &Plan{Kind: kind, Query: q, Root: n, db: db}, nil
}

// builder carries the shared planning state.
type builder struct {
	db   *core.Database
	opts Options // normalized
	memo Memo    // nil: plan every part
	// relNulls memoizes the per-relation null sets of the factorization
	// analysis.
	relNulls map[string]map[core.NullID]bool
}

// accept marks the node's chosen operator and appends the accepting
// decision.
func (b *builder) accept(n *Node, op Op, algorithm, reference, reason string) {
	n.Op = op
	n.Decisions = append(n.Decisions, Decision{
		Algorithm: algorithm, Op: op, Reference: reference, Accepted: true, Reason: reason,
	})
}

// reject appends a rejection to the node's decision record.
func (b *builder) reject(n *Node, op Op, algorithm, reference, reason string) {
	n.Decisions = append(n.Decisions, Decision{
		Algorithm: algorithm, Op: op, Reference: reference, Accepted: false, Reason: reason,
	})
}

// classification computes the Table 1 verdict for the sub-problem when q
// is a well-formed sjfBCQ, nil otherwise.
func classification(db *core.Database, q cq.Query, kind classify.CountingKind) *classify.Result {
	bq, ok := q.(*cq.BCQ)
	if !ok || bq.Validate() != nil || !bq.SelfJoinFree() {
		return nil
	}
	res, err := classify.Classify(classify.Variant{Kind: kind, Codd: db.IsCodd(), Uniform: db.Uniform()}, bq)
	if err != nil {
		return nil
	}
	return &res
}

// buildVal plans #Val(q).
func (b *builder) buildVal(q cq.Query) *Node {
	// Negations count by complement: #Val(¬q) = total − #Val(q), so ¬q
	// is exactly as easy as q (valuations partition, unlike completions).
	if neg, ok := q.(*cq.Negation); ok {
		n := &Node{Kind: classify.Valuations, Query: q}
		b.accept(n, OpComplement, "complement identity", "Section 2 (valuations partition)",
			"#Val(¬q) = total − #Val(q); the inner plan answers #Val(q)")
		n.Children = []*Node{b.buildVal(neg.Inner)}
		n.Cost.Note = "one big-integer subtraction over the inner plan"
		return n
	}

	n := &Node{Kind: classify.Valuations, Query: q}
	n.Class = classification(b.db, q, classify.Valuations)

	if bq, ok := q.(*cq.BCQ); ok && bq.SelfJoinFree() && bq.Validate() == nil {
		if cq.AllVariablesOccurOnce(bq) {
			b.accept(n, OpSingleOccurrence, "Theorem 3.6 (single-occurrence)", "Theorem 3.6",
				"every variable occurs exactly once: per-atom counts multiply")
			n.Cost.Note = "closed form, polynomial in |D|"
			return n
		}
		b.reject(n, OpSingleOccurrence, "Theorem 3.6 (single-occurrence)", "Theorem 3.6",
			"Theorem 3.6 needs every variable to occur exactly once")

		switch {
		case b.db.IsCodd() && !cq.HasSharedVarAtoms(bq):
			b.accept(n, OpCodd, "Theorem 3.7 (Codd tables)", "Theorem 3.7",
				"Codd table and no two atoms share a variable: independent per-atom inclusion–exclusion")
			n.Cost.Note = "closed form, polynomial in |D|"
			return n
		case !b.db.IsCodd():
			b.reject(n, OpCodd, "Theorem 3.7 (Codd tables)", "Theorem 3.7",
				"Theorem 3.7 needs a Codd table")
		default:
			b.reject(n, OpCodd, "Theorem 3.7 (Codd tables)", "Theorem 3.7",
				"Theorem 3.7 rejects the query: two atoms share a variable")
		}

		switch {
		case b.db.Uniform() && !cq.HasRepeatedVarAtom(bq) && !cq.HasPathPattern(bq) && !cq.HasDoublySharedPair(bq):
			b.accept(n, OpUniformVal, "Theorem 3.9 (uniform tables)", "Theorem 3.9",
				"uniform database and no hard pattern: the projection dynamic program applies")
			n.Cost.Note = "closed form, polynomial in |D|"
			return n
		case !b.db.Uniform():
			b.reject(n, OpUniformVal, "Theorem 3.9 (uniform tables)", "Theorem 3.9",
				"Theorem 3.9 needs a uniform database")
		default:
			b.reject(n, OpUniformVal, "Theorem 3.9 (uniform tables)", "Theorem 3.9",
				"Theorem 3.9 rejects the query: it contains a hard pattern (repeated-variable atom, path, or doubly-shared pair)")
		}
	} else {
		b.reject(n, OpSingleOccurrence, "Theorems 3.6/3.7/3.9", "Section 3",
			"the polynomial algorithms of Theorems 3.6/3.7/3.9 need a valid self-join-free BCQ")
	}

	// Independent-subquery factorization: split the query into parts that
	// share no variables and touch disjoint nulls, so the swept spaces of
	// the parts add instead of multiplying.
	if parts, op, ok, reason := b.factorVal(q); ok {
		algorithm := "independent-subquery factorization"
		reference := "independence rewrite (cf. Kenig–Suciu UCQ factorization)"
		b.accept(n, op, algorithm, reference, reason)
		for _, sub := range parts {
			n.Children = append(n.Children, b.component(sub))
		}
		if op == OpFactor {
			n.Cost.Note = fmt.Sprintf("%d independent components: relative counts multiply, swept spaces add", len(parts))
		} else {
			n.Cost.Note = fmt.Sprintf("%d independent disjunct groups: relative miss rates multiply, swept spaces add", len(parts))
		}
		return n
	} else {
		b.reject(n, OpFactor, "independent-subquery factorization",
			"independence rewrite (cf. Kenig–Suciu UCQ factorization)", reason)
	}

	if b.planCylinderIE(n, q) {
		return n
	}

	b.finishSweep(n, q)
	return n
}

// component plans part q of a factorization, from the memo when it
// holds q's content.
func (b *builder) component(q cq.Query) *Node {
	if b.memo == nil {
		return b.buildVal(q)
	}
	key, desc, count := b.memo.Component(q)
	if desc != nil {
		n := *desc
		n.Reused = count
		return &n
	}
	if count == nil {
		n := b.buildVal(q)
		n.MemoKey = key
		return n
	}
	// A count without a description is a part that sweeps: plan it
	// afresh, without the memo (its count covers every part below it),
	// and drop the payloads the count makes unnecessary.
	memo := b.memo
	b.memo = nil
	n := b.buildVal(q).stripped()
	b.memo = memo
	n.Reused = count
	return n
}

// buildComp plans #Comp(q).
func (b *builder) buildComp(q cq.Query) *Node {
	n := &Node{Kind: classify.Completions, Query: q}
	n.Class = classification(b.db, q, classify.Completions)

	if _, ok := q.(*cq.Negation); ok {
		b.reject(n, OpComplement, "complement identity", "Section 4",
			"the complement identity needs valuations: distinct completions do not partition between q and ¬q")
	}

	if bq, ok := q.(*cq.BCQ); ok && bq.SelfJoinFree() && bq.Validate() == nil {
		if b.db.Uniform() && cq.AllAtomsUnary(bq) && allRelationsUnary(b.db) {
			b.accept(n, OpUniformComp, "Theorem 4.6 (uniform unary schemas)", "Theorem 4.6",
				"uniform database over a unary schema: the block/profile dynamic program applies")
			n.Cost.Note = "closed form, polynomial in |D|"
			return n
		}
		switch {
		case !b.db.Uniform():
			b.reject(n, OpUniformComp, "Theorem 4.6 (uniform unary schemas)", "Theorem 4.6",
				"Theorem 4.6 needs a uniform database")
		default:
			b.reject(n, OpUniformComp, "Theorem 4.6 (uniform unary schemas)", "Theorem 4.6",
				"Theorem 4.6 needs a unary schema (no binary atoms or relations)")
		}
	} else {
		b.reject(n, OpUniformComp, "Theorem 4.6 (uniform unary schemas)", "Theorem 4.6",
			"the polynomial algorithm of Theorem 4.6 needs a valid self-join-free BCQ")
	}

	b.reject(n, OpFactor, "independent-subquery factorization",
		"independence rewrite (cf. Kenig–Suciu UCQ factorization)",
		"factorization multiplies valuation counts; distinct completions of independent parts can collide, so #Comp does not factor")

	b.finishSweep(n, q)
	return n
}

// planCylinderIE tries the cylinder inclusion–exclusion route on n,
// returning whether it was accepted. The built cylinder set becomes the
// node's execution payload. The build stops at the cap: a query past it
// costs the planner MaxUnionCylinders+1 cylinders, however many it has.
func (b *builder) planCylinderIE(n *Node, q cq.Query) bool {
	const algorithm = "cylinder inclusion–exclusion"
	const reference = "Proposition 5.2 (SpanL witness semantics)"
	switch q.(type) {
	case *cq.BCQ, *cq.UCQ:
	default:
		b.reject(n, OpCylinderIE, algorithm, reference,
			"cylinder inclusion–exclusion needs a BCQ or a union of BCQs")
		return false
	}
	set, err := cylinder.BuildAtMost(b.db, q, cylinder.MaxUnionCylinders)
	if errors.Is(err, cylinder.ErrTooManyCylinders) {
		b.reject(n, OpCylinderIE, algorithm, reference,
			fmt.Sprintf("cylinder inclusion–exclusion is capped at %d cylinders, the query has more", cylinder.MaxUnionCylinders))
		return false
	}
	if err != nil {
		b.reject(n, OpCylinderIE, algorithm, reference,
			"cylinder inclusion–exclusion failed: "+err.Error())
		return false
	}
	b.accept(n, OpCylinderIE, algorithm, reference,
		fmt.Sprintf("%d cylinder(s): exact inclusion–exclusion over %s subset terms, independent of the valuation-space size",
			len(set.Cylinders), subsetCount(len(set.Cylinders))))
	n.Cylinders = set
	n.Cost.Space = new(big.Int).Sub(subsetCountBig(len(set.Cylinders)), big.NewInt(1))
	n.Cost.Note = fmt.Sprintf("2^%d − 1 subset terms", len(set.Cylinders))
	return true
}

// finishSweep makes n a brute-force sweep node and computes its cost by
// compiling (and discarding) the sweep engine.
func (b *builder) finishSweep(n *Node, q cq.Query) {
	// BruteOnly already appended its own accepting decision; the normal
	// build path records the sweep as the accepted last resort here.
	if last := len(n.Decisions) - 1; last < 0 || !n.Decisions[last].Accepted || n.Decisions[last].Op != OpSweep {
		n.Decisions = append(n.Decisions, Decision{
			Algorithm: "guarded brute-force sweep",
			Op:        OpSweep,
			Reference: "Section 2 (definitions); compiled engine of internal/sweep",
			Accepted:  true,
			Reason:    "no fast path applies: enumerate the (pruned) valuation space on the compiled sweep engine",
		})
	}
	n.Op = OpSweep
	mode := sweep.ModeValuations
	if n.Kind == classify.Completions {
		mode = sweep.ModeCompletions
	}
	eng, err := sweep.CompileWith(b.db, q, mode, b.opts.Compile)
	if err != nil {
		// The database was validated in Build; a compile failure here is
		// impossible in practice, but keep the plan usable.
		n.Cost.Note = "sweep cost unavailable: " + err.Error()
		return
	}
	n.Engine = eng
	n.sweepCost(b.opts.MaxValuations)
	// Record how the sweep will actually run on the accepted decision:
	// whether atom matching compiled to the word-parallel bitset plan, and
	// in which atom order.
	if last := len(n.Decisions) - 1; last >= 0 && n.Decisions[last].Accepted && n.Decisions[last].Op == OpSweep {
		membership := "scalar"
		if eng.Bitset() {
			membership = "bitset"
		}
		n.Decisions[last].Reason += fmt.Sprintf(" [%s membership, %s atom order]", membership, eng.AtomOrder())
	}
}

// sweepCost derives a sweep node's cost block from its compiled engine,
// judged against the brute-force guard.
func (n *Node) sweepCost(guard int64) {
	eng := n.Engine
	n.Cost.Space = eng.Size()
	n.Cost.TotalSpace = eng.TotalSize()
	n.Cost.PrunedNulls = eng.Pruned()
	n.Cost.ExceedsGuard = eng.Size().Cmp(big.NewInt(guard)) > 0
	if n.Cost.PrunedNulls > 0 {
		n.Cost.Note = fmt.Sprintf("sweep %v of %v valuations (%d irrelevant nulls factored out)",
			n.Cost.Space, n.Cost.TotalSpace, n.Cost.PrunedNulls)
	} else {
		n.Cost.Note = fmt.Sprintf("sweep %v valuations", n.Cost.Space)
	}
	if n.Cost.ExceedsGuard {
		n.Cost.Note += fmt.Sprintf("; EXCEEDS the guard of %v", guard)
	}
}

// BuildEstimate compiles the plan of a Karp–Luby estimate request: a
// single OpKarpLuby node whose payload is the query's cylinder set, and
// whose cost is the cylinder count the sampler draws from. The estimate
// itself stays randomized and uncached. It fails when the cylinders
// cannot be built: the database is invalid, q is not a (union of) BCQ(s),
// or it has too many cylinders.
func BuildEstimate(db *core.Database, q cq.Query) (*Plan, error) {
	set, err := cylinder.Build(db, q)
	if err != nil {
		return nil, err
	}
	m := len(set.Cylinders)
	n := &Node{
		Op:    OpKarpLuby,
		Kind:  classify.Valuations,
		Query: q,
		Class: classification(db, q, classify.Valuations),
		Decisions: []Decision{{
			Algorithm: "Karp–Luby FPRAS", Op: OpKarpLuby, Reference: "Corollary 5.3", Accepted: true,
			Reason: fmt.Sprintf("%d cylinders: sample valuations proportionally to cylinder weights", m),
		}},
		Cost: Cost{
			Space: big.NewInt(int64(m)),
			Note:  fmt.Sprintf("%d cylinders; samples scale with m·ln(2/δ)/ε²", m),
		},
		Cylinders: set,
	}
	return &Plan{Kind: classify.Valuations, Query: q, Root: n, db: db}, nil
}

func allRelationsUnary(db *core.Database) bool {
	for _, r := range db.Relations() {
		if db.Arity(r) != 1 {
			return false
		}
	}
	return true
}

// subsetCount renders 2^m as a decimal string.
func subsetCount(m int) string { return subsetCountBig(m).String() }

func subsetCountBig(m int) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(m))
}
