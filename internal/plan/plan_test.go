package plan_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// figure1DB is the running example of the paper (Example 2.2 / Figure 1).
func figure1DB(t *testing.T) *core.Database {
	t.Helper()
	db := core.NewDatabase()
	db.MustAddFact("S", core.Const("a"), core.Const("b"))
	db.MustAddFact("S", core.Null(1), core.Const("a"))
	db.MustAddFact("S", core.Const("a"), core.Null(2))
	if err := db.SetDomain(1, []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := db.SetDomain(2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	return db
}

// factorDB holds two null-disjoint hard components: R over ⊥1–⊥3, S over
// ⊥4.
func factorDB(t *testing.T) *core.Database {
	t.Helper()
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(1))
	db.MustAddFact("R", core.Null(2), core.Null(3))
	db.MustAddFact("S", core.Null(4), core.Null(4))
	return db
}

func mustBuild(t *testing.T, db *core.Database, q cq.Query, kind classify.CountingKind, opts *plan.Options) *plan.Plan {
	t.Helper()
	p, err := plan.Build(db, q, kind, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRenderGoldenCodd pins the rendered plan of the paper's running
// example: the Codd algorithm of Theorem 3.7 fires after Theorem 3.6 is
// rejected, and both decisions are on record.
func TestRenderGoldenCodd(t *testing.T) {
	p := mustBuild(t, figure1DB(t), cq.MustParseBCQ("S(x, x)"), classify.Valuations, nil)
	const want = `plan #Val(S(x, x))
└─ exact/theorem-3.7 — closed form, polynomial in |D|
   · table 1: #Val_Cd(q) is FP [Theorem 3.7]
   · Theorem 3.6 (single-occurrence) [Theorem 3.6]: rejected — Theorem 3.6 needs every variable to occur exactly once
   · Theorem 3.7 (Codd tables) [Theorem 3.7]: accepted — Codd table and no two atoms share a variable: independent per-atom inclusion–exclusion
`
	if got := p.Render(); got != want {
		t.Errorf("rendered plan mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if m := p.Method(); m != "exact/theorem-3.7" {
		t.Errorf("method %q", m)
	}
}

// TestRenderGoldenFactorComplement pins the full tree of a negated,
// factorizable query: the complement node carries the inner plan (not a
// flattened string), the factor node carries one child per independent
// component, and every rejected algorithm appears with the precondition
// that failed.
func TestRenderGoldenFactorComplement(t *testing.T) {
	q := cq.MustParse("!(R(x, x) ∧ S(y, y))")
	p := mustBuild(t, factorDB(t), q, classify.Valuations, nil)
	const want = `plan #Val(¬(R(x, x) ∧ S(y, y)))
└─ complement — one big-integer subtraction over the inner plan
   · complement identity [Section 2 (valuations partition)]: accepted — #Val(¬q) = total − #Val(q); the inner plan answers #Val(q)
   └─ #Val(R(x, x) ∧ S(y, y))
      └─ factor/independent-product — 2 independent components: relative counts multiply, swept spaces add
         · table 1: #Val^u(q) is #P-complete [Theorem 3.9]; hard pattern R(x, x)
         · Theorem 3.6 (single-occurrence) [Theorem 3.6]: rejected — Theorem 3.6 needs every variable to occur exactly once
         · Theorem 3.7 (Codd tables) [Theorem 3.7]: rejected — Theorem 3.7 needs a Codd table
         · Theorem 3.9 (uniform tables) [Theorem 3.9]: rejected — Theorem 3.9 rejects the query: it contains a hard pattern (repeated-variable atom, path, or doubly-shared pair)
         · independent-subquery factorization [independence rewrite (cf. Kenig–Suciu UCQ factorization)]: accepted — 2 components share no variables and touch pairwise-disjoint nulls: relative counts multiply exactly
         ├─ #Val(R(x, x))
         │  └─ exact/cylinder-inclusion-exclusion — 2^2 − 1 subset terms
         │     · table 1: #Val^u(q) is #P-complete [Theorem 3.9]; hard pattern R(x, x)
         │     · Theorem 3.6 (single-occurrence) [Theorem 3.6]: rejected — Theorem 3.6 needs every variable to occur exactly once
         │     · Theorem 3.7 (Codd tables) [Theorem 3.7]: rejected — Theorem 3.7 needs a Codd table
         │     · Theorem 3.9 (uniform tables) [Theorem 3.9]: rejected — Theorem 3.9 rejects the query: it contains a hard pattern (repeated-variable atom, path, or doubly-shared pair)
         │     · independent-subquery factorization [independence rewrite (cf. Kenig–Suciu UCQ factorization)]: rejected — the query is a single connected component: its atoms share variables or touch overlapping nulls
         │     · cylinder inclusion–exclusion [Proposition 5.2 (SpanL witness semantics)]: accepted — 2 cylinder(s): exact inclusion–exclusion over 4 subset terms, independent of the valuation-space size
         └─ #Val(S(y, y))
            └─ exact/cylinder-inclusion-exclusion — 2^1 − 1 subset terms
               · table 1: #Val^u(q) is #P-complete [Theorem 3.9]; hard pattern R(x, x)
               · Theorem 3.6 (single-occurrence) [Theorem 3.6]: rejected — Theorem 3.6 needs every variable to occur exactly once
               · Theorem 3.7 (Codd tables) [Theorem 3.7]: rejected — Theorem 3.7 needs a Codd table
               · Theorem 3.9 (uniform tables) [Theorem 3.9]: rejected — Theorem 3.9 rejects the query: it contains a hard pattern (repeated-variable atom, path, or doubly-shared pair)
               · independent-subquery factorization [independence rewrite (cf. Kenig–Suciu UCQ factorization)]: rejected — the query is a single connected component: its atoms share variables or touch overlapping nulls
               · cylinder inclusion–exclusion [Proposition 5.2 (SpanL witness semantics)]: accepted — 1 cylinder(s): exact inclusion–exclusion over 2 subset terms, independent of the valuation-space size
`
	if got := p.Render(); got != want {
		t.Errorf("rendered plan mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if m := p.Method(); m != "complement(factor(exact/cylinder-inclusion-exclusion × exact/cylinder-inclusion-exclusion))" {
		t.Errorf("method %q", m)
	}
}

// TestRenderDeterministic: building and rendering the same problem twice
// yields byte-identical text (golden tests and the cross-layer EXPLAIN
// identity depend on it).
func TestRenderDeterministic(t *testing.T) {
	mk := func() string {
		db := core.NewUniformDatabase([]string{"a", "b", "c"})
		db.MustAddFact("R", core.Null(1), core.Null(2))
		db.MustAddFact("R", core.Null(2), core.Null(3))
		db.MustAddFact("S", core.Null(4))
		db.MustAddFact("T", core.Null(5), core.Null(5))
		q := cq.MustParse("R(x, y) ∧ T(z, z) | S(u)")
		p, err := plan.Build(db, q, classify.Valuations, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.Render()
	}
	first := mk()
	for i := 0; i < 10; i++ {
		if got := mk(); got != first {
			t.Fatalf("rendering is not deterministic:\n--- first ---\n%s--- run %d ---\n%s", first, i, got)
		}
	}
}

// TestComplementCarriesInnerPlan: the complement node holds the inner
// plan as a child with its own decision record, not a flattened method
// string.
func TestComplementCarriesInnerPlan(t *testing.T) {
	db := figure1DB(t)
	p := mustBuild(t, db, cq.MustParse("!S(x, x)"), classify.Valuations, nil)
	root := p.Root
	if root.Op != plan.OpComplement || len(root.Children) != 1 {
		t.Fatalf("complement root: op %q, %d children", root.Op, len(root.Children))
	}
	inner := root.Children[0]
	if inner.Op != plan.OpCodd {
		t.Errorf("inner op %q, want %q", inner.Op, plan.OpCodd)
	}
	if inner.Query.String() != "S(x, x)" {
		t.Errorf("inner query %q", inner.Query)
	}
	// The Table 1 classification is reachable from the inner node.
	if inner.Class == nil || inner.Class.Complexity != classify.FP {
		t.Errorf("inner classification %+v", inner.Class)
	}
	// The decision record retains the rejected Theorem 3.6 attempt.
	var sawReject bool
	for _, d := range inner.Decisions {
		if !d.Accepted && d.Op == plan.OpSingleOccurrence && strings.Contains(d.Reason, "occur exactly once") {
			sawReject = true
		}
	}
	if !sawReject {
		t.Errorf("missing structured rejection of Theorem 3.6: %+v", inner.Decisions)
	}
}

// TestFactorComponents: the factorization splits on variable-disjointness
// AND null-disjointness, and refuses when either couples the parts.
func TestFactorComponents(t *testing.T) {
	// Null-coupled: R and S share ⊥1, so R(x, x) ∧ S(y, y) must not factor.
	coupled := core.NewUniformDatabase([]string{"a", "b"})
	coupled.MustAddFact("R", core.Null(1), core.Null(1))
	coupled.MustAddFact("S", core.Null(1), core.Null(2))
	p := mustBuild(t, coupled, cq.MustParseBCQ("R(x, x) ∧ S(y, y)"), classify.Valuations, nil)
	if p.Root.Op == plan.OpFactor {
		t.Fatalf("null-coupled query factored: %s", p.Render())
	}

	// Variable-coupled: same relations on disjoint nulls, but the query
	// shares x across the atoms.
	disjoint := core.NewUniformDatabase([]string{"a", "b"})
	disjoint.MustAddFact("R", core.Null(1), core.Null(1))
	disjoint.MustAddFact("S", core.Null(2), core.Null(3))
	p = mustBuild(t, disjoint, cq.MustParseBCQ("R(x, x) ∧ S(x, y)"), classify.Valuations, nil)
	if p.Root.Op == plan.OpFactor {
		t.Fatalf("variable-coupled query factored: %s", p.Render())
	}

	// Fully independent: factors into two children.
	p = mustBuild(t, disjoint, cq.MustParseBCQ("R(x, x) ∧ S(y, z)"), classify.Valuations, nil)
	if p.Root.Op != plan.OpFactor || len(p.Root.Children) != 2 {
		t.Fatalf("independent query did not factor: %s", p.Render())
	}

	// Unions group disjuncts by shared nulls only.
	p = mustBuild(t, disjoint, cq.MustParse("R(x, x) | S(y, y)").(cq.Query), classify.Valuations, nil)
	if p.Root.Op != plan.OpFactorUnion || len(p.Root.Children) != 2 {
		t.Fatalf("independent union did not factor: %s", p.Render())
	}
	p = mustBuild(t, coupled, cq.MustParse("R(x, x) | S(y, y)").(cq.Query), classify.Valuations, nil)
	if p.Root.Op == plan.OpFactorUnion {
		t.Fatalf("null-coupled union factored: %s", p.Render())
	}

	// Two components of two atoms each: R and S share x and ⊥1, T and U
	// share y. Theorem 3.9 rejects R(x, x), so the query factors, and
	// the parts must be {R, S} and {T, U}: T(a, a) and U(b) agree on no
	// y, so the count is 0.
	pairs := core.NewUniformDatabase([]string{"a", "b"})
	pairs.MustAddFact("R", core.Null(1), core.Null(1))
	pairs.MustAddFact("S", core.Null(1))
	pairs.MustAddFact("T", core.Const("a"), core.Const("a"))
	pairs.MustAddFact("U", core.Const("b"))
	checkFactorParts(t, pairs, cq.MustParseBCQ("R(x, x) ∧ S(x) ∧ T(y, y) ∧ U(y)"), plan.OpFactor, []string{"R S", "T U"})

	// Four disjuncts coupled pairwise by nulls: P and Q read ⊥1 and ⊥2,
	// R and S read ⊥3 and ⊥4, so the groups are {P, Q} and {R, S}.
	quad := core.NewUniformDatabase([]string{"a", "b"})
	quad.MustAddFact("P", core.Null(1), core.Null(2))
	quad.MustAddFact("Q", core.Null(1), core.Null(2))
	quad.MustAddFact("R", core.Null(3), core.Null(4))
	quad.MustAddFact("S", core.Null(3), core.Null(4))
	checkFactorParts(t, quad, cq.MustParse("P(x, x) | Q(x, x) | R(x, x) | S(x, x)").(cq.Query), plan.OpFactorUnion, []string{"P Q", "R S"})
}

// checkFactorParts builds the #Val plan of q over db and checks that
// its root is op with one part per entry of want (the relations of the
// part's atoms, in order), and that executing it counts what brute force
// counts.
func checkFactorParts(t *testing.T, db *core.Database, q cq.Query, op plan.Op, want []string) {
	t.Helper()
	p := mustBuild(t, db, q, classify.Valuations, nil)
	if p.Root.Op != op {
		t.Fatalf("%v: root %q, want %q: %s", q, p.Root.Op, op, p.Render())
	}
	var got []string
	for _, c := range p.Root.Children {
		var rels []string
		for _, d := range disjunctsOf(c.Query) {
			for _, a := range d.Atoms {
				rels = append(rels, a.Rel)
			}
		}
		got = append(got, strings.Join(rels, " "))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%v: parts %q, want %q: %s", q, got, want, p.Render())
	}
	n, _, err := count.ExecutePlan(db, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	brute, err := count.BruteForceValuations(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(brute) != 0 {
		t.Fatalf("%v: the plan counts %v, brute force %v: %s", q, n, brute, p.Render())
	}
}

// disjunctsOf returns the conjunctions of a BCQ or a UCQ.
func disjunctsOf(q cq.Query) []*cq.BCQ {
	if u, ok := q.(*cq.UCQ); ok {
		return u.Disjuncts
	}
	return []*cq.BCQ{q.(*cq.BCQ)}
}

// TestCompletionsNeverFactor: #Comp plans must reject the factorization
// with a structured reason — distinct completions of independent parts
// can collide.
func TestCompletionsNeverFactor(t *testing.T) {
	p := mustBuild(t, factorDB(t), cq.MustParseBCQ("R(x, x) ∧ S(y, y)"), classify.Completions, nil)
	if p.Root.Op == plan.OpFactor || p.Root.Op == plan.OpFactorUnion {
		t.Fatalf("completions plan factored: %s", p.Render())
	}
	var sawReject bool
	for _, d := range p.Root.Decisions {
		if d.Op == plan.OpFactor && !d.Accepted && strings.Contains(d.Reason, "completions") {
			sawReject = true
		}
	}
	if !sawReject {
		t.Errorf("missing factorization rejection in comp plan: %+v", p.Root.Decisions)
	}
}

// TestSweepCostAndGuard: a sweep node carries the post-pruning space, the
// total space, the pruned-null count, and whether the guard would refuse
// it.
func TestSweepCostAndGuard(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	// 30 nulls in F (irrelevant to the query), a 2-null chain in R.
	for i := 1; i <= 30; i++ {
		db.MustAddFact("F", core.Null(core.NullID(100+i)))
	}
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("R", core.Null(2), core.Null(1))
	q := cq.MustParse("R(x, y) ∧ x ≠ y") // inequality: no cylinder route
	p := mustBuild(t, db, q, classify.Valuations, nil)
	n := p.Root
	if n.Op != plan.OpSweep {
		t.Fatalf("op %q, want a sweep: %s", n.Op, p.Render())
	}
	if n.Cost.Space == nil || n.Cost.Space.Int64() != 4 {
		t.Errorf("post-pruning space %v, want 4", n.Cost.Space)
	}
	if n.Cost.PrunedNulls != 30 {
		t.Errorf("pruned %d, want 30", n.Cost.PrunedNulls)
	}
	if n.Cost.ExceedsGuard {
		t.Errorf("4 valuations flagged as exceeding the guard")
	}
	// With a guard of 2, the same plan must flag the sweep.
	p = mustBuild(t, db, q, classify.Valuations, &plan.Options{MaxValuations: 2})
	if !p.Root.Cost.ExceedsGuard {
		t.Errorf("guard excess not flagged: %s", p.Render())
	}
}

// TestCylinderRouteCap pins the one bound on inclusion–exclusion,
// cylinder.MaxUnionCylinders = 18: R(x, x) over a 16-cycle of nulls with
// 2 chords has 18 cylinders and plans the cylinder route; with 3 chords
// (the benchmark's sweep-val shape) it has 19 and plans the sweep.
func TestCylinderRouteCap(t *testing.T) {
	q := cq.MustParseBCQ("R(x, x)")
	chords := [][2]int{{0, 3}, {2, 7}, {5, 12}}
	for _, c := range []struct {
		chords int
		want   plan.Op
	}{{2, plan.OpCylinderIE}, {3, plan.OpSweep}} {
		db := core.NewUniformDatabase([]string{"a", "b"})
		for i := 0; i < 16; i++ {
			db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%16)))
		}
		for _, ch := range chords[:c.chords] {
			db.MustAddFact("R", core.Null(core.NullID(1+ch[0])), core.Null(core.NullID(1+ch[1])))
		}
		p := mustBuild(t, db, q, classify.Valuations, nil)
		if p.Root.Op != c.want {
			t.Errorf("%d cylinders: op %q, want %q\n%s", 16+c.chords, p.Root.Op, c.want, p.Render())
		}
	}
}

// TestCylinderRouteStopsAtCap: a query past the inclusion–exclusion cap
// costs the planner the cap's worth of cylinders, not all of them.
// R(x, y) ∧ R(y, z) over a chain of 250 facts R(?i, ?i+1) has 62,500
// cylinders, and the benchmark's join R(x, y) ∧ S(y, z) over 3200 ground
// pairs plus R(?1, ?2) has 3201. Both plan a sweep, and the rejection
// says the query has more cylinders than the cap without counting them.
func TestCylinderRouteStopsAtCap(t *testing.T) {
	chain := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 250; i++ {
		chain.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i+1)))
	}
	join := core.NewDatabase()
	join.SetDomain(1, []string{"a_0", "b_0"})
	join.SetDomain(2, []string{"a_0", "b_0"})
	for i := 0; i < 3200; i++ {
		a, b := core.Const(fmt.Sprintf("a_%d", i)), core.Const(fmt.Sprintf("b_%d", i))
		join.MustAddFact("R", a, b)
		join.MustAddFact("S", b, a)
	}
	join.MustAddFact("R", core.Null(1), core.Null(2))
	chainQ := cq.MustParseBCQ("R(x, y) ∧ R(y, z)")
	for _, c := range []struct {
		name string
		db   *core.Database
		q    cq.Query
	}{{"chain", chain, chainQ}, {"join", join, cq.MustParseBCQ("R(x, y) ∧ S(y, z)")}} {
		p := mustBuild(t, c.db, c.q, classify.Valuations, nil)
		if p.Root.Op != plan.OpSweep {
			t.Errorf("%s: op %q, want %q\n%s", c.name, p.Root.Op, plan.OpSweep, p.Render())
		}
		if !strings.Contains(p.Render(), "cylinder inclusion–exclusion is capped at 18 cylinders, the query has more") {
			t.Errorf("%s: no cap rejection in\n%s", c.name, p.Render())
		}
	}
	// The parent's full build allocated about 1.81M times here.
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := plan.Build(chain, chainQ, classify.Valuations, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10000 {
		t.Errorf("plan.Build of the chain allocated %.0f times, want at most 10000", allocs)
	}
}

// TestBruteOnlyAndEstimatePlans: the auxiliary plan constructors for
// forced jobs and estimate responses.
func TestBruteOnlyAndEstimatePlans(t *testing.T) {
	db := figure1DB(t)
	q := cq.MustParseBCQ("S(x, x)")
	p, err := plan.BruteOnly(db, q, classify.Valuations, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != plan.OpSweep || p.Method() != "brute-force" {
		t.Fatalf("brute-only plan: op %q method %q", p.Root.Op, p.Method())
	}
	if p.Root.Cost.Space == nil || p.Root.Cost.Space.Int64() != 6 {
		t.Errorf("brute-only cost %v, want 6", p.Root.Cost.Space)
	}

	e, err := plan.BuildEstimate(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if e.Root.Op != plan.OpKarpLuby {
		t.Fatalf("estimate plan op %q", e.Root.Op)
	}
	if e.Root.Cost.Space == nil || e.Root.Cost.Space.Int64() != 2 {
		t.Errorf("estimate cylinder count %v, want 2 (facts with nulls)", e.Root.Cost.Space)
	}
}

// TestPlanJSONRoundTrips: the wire form marshals, and carries the text,
// method, decisions and children of the plan.
func TestPlanJSONRoundTrips(t *testing.T) {
	p := mustBuild(t, factorDB(t), cq.MustParseBCQ("R(x, x) ∧ S(y, y)"), classify.Valuations, nil)
	j := p.JSON()
	if j.Method != p.Method() || j.Text != p.Render() || j.Kind != "val" {
		t.Errorf("JSON header mismatch: %+v", j)
	}
	if j.Root == nil || len(j.Root.Children) != 2 || len(j.Root.Decisions) == 0 {
		t.Fatalf("JSON tree mismatch: %+v", j.Root)
	}
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back plan.PlanJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Method != j.Method || back.Root.Op != j.Root.Op || len(back.Root.Children) != 2 {
		t.Errorf("round trip mismatch: %+v", back)
	}
}

// TestSweepDecisionAnnotated: the accepted sweep decision is annotated
// with the membership evaluator and the atom order the engine compiled,
// and the annotation survives into the wire form.
func TestSweepDecisionAnnotated(t *testing.T) {
	p, err := plan.BruteOnly(figure1DB(t), cq.MustParseBCQ("S(x, x)"), classify.Valuations, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := p.Root.Decisions[len(p.Root.Decisions)-1]
	want := fmt.Sprintf("[bitset membership, %s atom order]", p.Root.Engine.AtomOrder())
	if !last.Accepted || !strings.HasSuffix(last.Reason, want) {
		t.Fatalf("accepted sweep decision %q, want the annotation %q", last.Reason, want)
	}
	blob, err := json.Marshal(p.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), want) {
		t.Fatalf("plan wire form misses the annotation: %s", blob)
	}
}
