package incompletedb

import (
	"context"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// figure1DB builds the running example of the paper (Example 2.2).
func figure1DB() *Database {
	db := NewDatabase()
	db.MustAddFact("S", Const("a"), Const("b"))
	db.MustAddFact("S", Null(1), Const("a"))
	db.MustAddFact("S", Const("a"), Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})
	return db
}

// prepare opens a counting session over db on a fresh solver.
func prepare(t *testing.T, db *Database) *PreparedDB {
	t.Helper()
	pdb, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	return pdb
}

func TestFacadeQuickstart(t *testing.T) {
	ctx := context.Background()
	pdb := prepare(t, figure1DB())
	q := MustParseQuery("S(x, x)")

	if total := pdb.TotalValuations(); total.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("total %v", total)
	}
	val, err := pdb.Count(ctx, q, Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if val.Count.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("#Val = %v (method %s)", val.Count, val.Method)
	}
	comp, err := pdb.Count(ctx, q, Completions)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Count.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("#Comp = %v", comp.Count)
	}
	all, err := pdb.AllCompletions(ctx)
	if err != nil || all.Count.Cmp(big.NewInt(5)) != 0 {
		t.Fatalf("all completions %v, err %v", all, err)
	}
}

func TestFacadeClassify(t *testing.T) {
	q := MustParseBCQ("R(x, y)")
	rs, err := ClassifyAll(q)
	if err != nil || len(rs) != 8 {
		t.Fatalf("%v, err %v", rs, err)
	}
	r, err := Classify(Variant{Kind: Completions, Uniform: true}, q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Complexity != SharpPHard {
		t.Fatalf("#Compu(R(x,y)) = %v", r.Complexity)
	}
	if !strings.Contains(Table1(), "R(x,y)") {
		t.Fatal("Table1 missing entries")
	}
}

func TestFacadeEstimators(t *testing.T) {
	ctx := context.Background()
	pdb := prepare(t, figure1DB())
	q := MustParseQuery("S(x, x)")
	r := rand.New(rand.NewSource(1))
	est, err := pdb.Estimate(ctx, q, 0.05, 0.05, r)
	if err != nil {
		t.Fatal(err)
	}
	diff := new(big.Int).Sub(est.Estimate, big.NewInt(4))
	if diff.CmpAbs(big.NewInt(1)) > 0 {
		t.Fatalf("Karp–Luby estimate %v far from 4", est.Estimate)
	}
	mc, err := pdb.MonteCarlo(ctx, q, 5000, r)
	if err != nil {
		t.Fatal(err)
	}
	diff = new(big.Int).Sub(mc.Estimate, big.NewInt(4))
	if diff.CmpAbs(big.NewInt(1)) > 0 {
		t.Fatalf("Monte Carlo estimate %v far from 4", mc.Estimate)
	}
	lb, err := pdb.CompletionsLowerBound(ctx, q, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Bound.Cmp(big.NewInt(3)) > 0 {
		t.Fatalf("lower bound %v exceeds the exact count 3", lb.Bound)
	}
}

func TestFacadeParseDatabase(t *testing.T) {
	db, err := ParseDatabaseString("uniform a b\nR(?1)\n")
	if err != nil || !db.Uniform() {
		t.Fatalf("parse failed: %v", err)
	}
	if !IsPatternOf(MustParseBCQ("R(x)"), MustParseBCQ("R(x, y) ∧ S(z)")) {
		t.Fatal("IsPatternOf re-export broken")
	}
}

func TestFacadeCertaintySemantics(t *testing.T) {
	ctx := context.Background()
	pdb := prepare(t, figure1DB())
	q := MustParseQuery("S(x, y)")
	cert, err := pdb.Certain(ctx, q)
	if err != nil || !*cert.Holds {
		t.Fatalf("S(x,y) should be certain: %v %v", cert, err)
	}
	qxx := MustParseQuery("S(x, x)")
	cert, err = pdb.Certain(ctx, qxx)
	if err != nil || *cert.Holds {
		t.Fatalf("S(x,x) should not be certain: %v %v", cert, err)
	}
	poss, err := pdb.Possible(ctx, qxx)
	if err != nil || !*poss.Holds {
		t.Fatalf("S(x,x) should be possible: %v %v", poss, err)
	}
	// Over the Figure 1 table, µ_k(S(x,x)) = 0: the domain {1..k} is
	// disjoint from the constants a, b, so no diagonal fact can arise.
	mu, err := pdb.Mu(ctx, qxx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mu.Ratio.Sign() != 0 {
		t.Fatalf("µ_3 over the Figure 1 table = %v, want 0", mu.Ratio)
	}
	// Over the all-null table {S(⊥1,⊥2)}, whose nulls carry no domains,
	// µ_k(S(x,x)) = 1/k.
	free := NewDatabase()
	free.MustAddFact("S", Null(1), Null(2))
	mu, err = NewSolver().Mu(ctx, free, qxx, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mu.Ratio.Cmp(big.NewRat(1, 3)) != 0 {
		t.Fatalf("µ_3 = %v, want 1/3", mu.Ratio)
	}
}

// TestFacadeExplain: the root EXPLAIN API — a plan compiles without
// executing, the count executes that same plan, and the rendered text is
// deterministic.
func TestFacadeExplain(t *testing.T) {
	ctx := context.Background()
	pdb := prepare(t, figure1DB())
	q := MustParseQuery("S(x, x)")
	p, err := pdb.Explain(q, Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root == nil || p.Method() == "" {
		t.Fatalf("empty plan: %+v", p)
	}
	if !strings.Contains(p.Render(), "plan #Val(S(x, x))") {
		t.Errorf("rendered plan:\n%s", p.Render())
	}
	if p.Render() != p.JSON().Text {
		t.Error("JSON text differs from Render")
	}
	res, err := pdb.Count(ctx, q, Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("count %v, want 4", res.Count)
	}
	if string(res.Method) != p.Method() || res.Plan.Render() != p.Render() {
		t.Errorf("count ran another plan: method %q vs %q\n%s", res.Method, p.Method(), res.Plan.Render())
	}
	// Completions plan, too.
	pc, err := pdb.Explain(q, Completions)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := pdb.Count(ctx, q, Completions)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Count.Cmp(big.NewInt(3)) != 0 || string(nc.Method) != pc.Method() {
		t.Fatalf("comp count %v by %q, plan method %q", nc.Count, nc.Method, pc.Method())
	}
}

func TestFacadeInequalityQuery(t *testing.T) {
	db := NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", Null(1), Null(2))
	q := MustParseQuery("R(x, y) ∧ x ≠ y")
	if _, ok := q.(*BCQNeq); !ok {
		t.Fatalf("expected BCQNeq, got %T", q)
	}
	res, err := prepare(t, db).Count(context.Background(), q, Valuations)
	if err != nil || res.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("count %v, err %v", res, err)
	}
}
