package approx

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
)

func exampleDB() *core.Database {
	db := core.NewDatabase()
	db.MustAddFact("S", core.Const("a"), core.Const("b"))
	db.MustAddFact("S", core.Null(1), core.Const("a"))
	db.MustAddFact("S", core.Const("a"), core.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})
	return db
}

func TestMonteCarloExample(t *testing.T) {
	db := exampleDB()
	q := cq.MustParseBCQ("S(x, x)")
	r := rand.New(rand.NewSource(1))
	res, err := MonteCarloValuations(db, q, 20000, r)
	if err != nil {
		t.Fatal(err)
	}
	// True answer 4 of 6; the estimate should land within ±1.
	if res.Estimate.Cmp(big.NewInt(3)) < 0 || res.Estimate.Cmp(big.NewInt(5)) > 0 {
		t.Fatalf("estimate %v far from 4", res.Estimate)
	}
	if res.Fraction < 0.6 || res.Fraction > 0.72 {
		t.Fatalf("fraction %v far from 2/3", res.Fraction)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	db := exampleDB()
	q := cq.MustParseBCQ("S(x, x)")
	if _, err := MonteCarloValuations(db, q, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero samples accepted")
	}
	missing := core.NewDatabase()
	missing.MustAddFact("R", core.Null(1))
	if _, err := MonteCarloValuations(missing, cq.MustParseBCQ("R(x)"), 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("missing domain accepted")
	}
}

func TestMonteCarloEmptyDomain(t *testing.T) {
	db := core.NewUniformDatabase(nil)
	db.MustAddFact("R", core.Null(1))
	res, err := MonteCarloValuations(db, cq.MustParseBCQ("R(x)"), 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Sign() != 0 {
		t.Fatal("empty domain should estimate 0")
	}
}

func TestKarpLubyExactOnExample(t *testing.T) {
	db := exampleDB()
	q := cq.MustParseBCQ("S(x, x)")
	r := rand.New(rand.NewSource(7))
	res, err := KarpLubyValuations(db, q, 0.05, 0.01, r)
	if err != nil {
		t.Fatal(err)
	}
	// With ε=0.05 the estimate must be within 5% of 4 → in [3.8, 4.2], and
	// being an integer, exactly 4 (allow 3..5 for rounding safety).
	diff := new(big.Int).Sub(res.Estimate, big.NewInt(4))
	if diff.CmpAbs(big.NewInt(1)) > 0 {
		t.Fatalf("estimate %v far from 4 (samples=%d cylinders=%d)", res.Estimate, res.Samples, res.Cylinders)
	}
}

// TestKarpLubyAccuracy runs the FPRAS against exact counts on random
// databases and checks the (ε,δ) guarantee empirically.
func TestKarpLubyAccuracy(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseBCQ("R(x, x)"),
		cq.MustParseBCQ("R(x, y) ∧ S(y)"),
		cq.MustParse("R(x, x) | S(y)"),
	}
	schema := map[string]int{"R": 2, "S": 1}
	failures := 0
	trials := 0
	for _, q := range queries {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			db := core.NewUniformDatabase([]string{"a", "b", "c"})
			nNulls := 1 + r.Intn(4)
			for rel, arity := range schema {
				nf := 1 + r.Intn(2)
				for i := 0; i < nf; i++ {
					args := make([]core.Value, arity)
					for j := range args {
						if r.Intn(2) == 0 {
							args[j] = core.Null(core.NullID(1 + r.Intn(nNulls)))
						} else {
							args[j] = core.Const([]string{"a", "b", "c"}[r.Intn(3)])
						}
					}
					db.MustAddFact(rel, args...)
				}
			}
			want, err := count.BruteForceValuations(db, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := KarpLubyValuations(db, q, 0.1, 0.05, r)
			if err != nil {
				t.Fatal(err)
			}
			trials++
			// |est − want| ≤ ε·want + 1 (rounding slack).
			diff := new(big.Int).Sub(res.Estimate, want)
			diff.Abs(diff)
			bound := new(big.Int).Div(want, big.NewInt(10)) // ε = 0.1
			bound.Add(bound, big.NewInt(1))
			if diff.Cmp(bound) > 0 {
				failures++
				t.Logf("q=%v seed=%d: estimate %v vs exact %v", q, seed, res.Estimate, want)
			}
		}
	}
	// δ=0.05 per trial; over ~24 trials a couple of failures would already
	// be unusual — tolerate at most 2.
	if failures > 2 {
		t.Fatalf("%d/%d trials outside the ε bound", failures, trials)
	}
}

func TestKarpLubyZeroCount(t *testing.T) {
	// Empty relation S: no cylinder, estimate must be exactly 0.
	db := core.NewUniformDatabase([]string{"a"})
	db.MustAddFact("R", core.Null(1))
	res, err := KarpLubyValuations(db, cq.MustParseBCQ("R(x) ∧ S(x)"), 0.5, 0.5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Sign() != 0 || res.Cylinders != 0 {
		t.Fatalf("estimate %v, cylinders %d", res.Estimate, res.Cylinders)
	}
}

func TestKarpLubyParamValidation(t *testing.T) {
	db := exampleDB()
	q := cq.MustParseBCQ("S(x, x)")
	r := rand.New(rand.NewSource(1))
	for _, bad := range [][2]float64{{0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {-0.1, 0.5}} {
		if _, err := KarpLubyValuations(db, q, bad[0], bad[1], r); err == nil {
			t.Fatalf("parameters %v accepted", bad)
		}
	}
	if _, err := KarpLubyValuations(db, cq.Tautology{}, 0.5, 0.5, r); err == nil {
		t.Fatal("non-UCQ query accepted")
	}
}

// TestKarpLubySampleBoundOverflow: an ε so small that the sample bound
// ⌈3·m·ln(2/δ)/ε²⌉ passes an int is refused. Converting the bound
// wrapped it negative, the n < 1 clamp then drew one sample, and the
// 10-cycle below reported Samples 1 and 65610 against an exact 58023.
func TestKarpLubySampleBoundOverflow(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 1; i <= 10; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%10+1)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	for _, eps := range []float64{1e-9, 1e-200} {
		res, err := KarpLubyValuations(db, q, eps, 0.05, rand.New(rand.NewSource(1)))
		if err == nil {
			t.Fatalf("ε = %g accepted: %d samples, estimate %v", eps, res.Samples, res.Estimate)
		}
	}
}

// TestKarpLubyDeterministicForSeed: one seed gives one estimate. Every
// draw must consume the random stream in a fixed order, so no map
// iteration may decide which null a draw lands on.
func TestKarpLubyDeterministicForSeed(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 10; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%10+1)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	var first *big.Int
	for call := 0; call < 20; call++ {
		res, err := KarpLubyValuations(db, q, 0.3, 0.3, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.Estimate
		} else if res.Estimate.Cmp(first) != 0 {
			t.Fatalf("call %d estimated %v, call 0 estimated %v at the same seed", call, res.Estimate, first)
		}
	}
}

// TestKarpLubyScalesBeyondBruteForce runs the FPRAS on a database whose
// valuation space is astronomically large (far beyond enumeration) and
// checks the estimate against the closed-form answer.
func TestKarpLubyScalesBeyondBruteForce(t *testing.T) {
	// D(R) = {R(?i, ?i') : i}, dom uniform of size d; q = R(x,x).
	// For one tuple the satisfying fraction is 1/d per pair; exact count
	// computable by inclusion–exclusion over tuples... use a single tuple
	// with 40 free null pairs in another relation to blow up the space:
	d := 10
	dom := make([]string, d)
	for i := range dom {
		dom[i] = fmt.Sprintf("v%d", i)
	}
	db := core.NewUniformDatabase(dom)
	db.MustAddFact("R", core.Null(1), core.Null(2))
	for i := 0; i < 40; i++ {
		db.MustAddFact("Free", core.Null(core.NullID(10+i)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	// 42 nulls in total; satisfying valuations pick ν(?1) = ν(?2) (d ways)
	// and anything for the 40 free nulls: d^41 of the d^42 valuations.
	want := new(big.Int).Exp(big.NewInt(int64(d)), big.NewInt(41), nil)
	res, err := KarpLubyValuations(db, q, 0.05, 0.05, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	diff := new(big.Int).Sub(res.Estimate, want)
	diff.Abs(diff)
	bound := new(big.Int).Div(want, big.NewInt(20))
	if diff.Cmp(bound) > 0 {
		t.Fatalf("estimate %v vs exact %v", res.Estimate, want)
	}
}

func TestCompletionsLowerBound(t *testing.T) {
	db := exampleDB()
	q := cq.MustParseBCQ("S(x, x)")
	r := rand.New(rand.NewSource(2))
	lb, err := CompletionsLowerBound(db, q, 500, r)
	if err != nil {
		t.Fatal(err)
	}
	// Exact answer is 3; with 500 samples over 6 valuations the bound is
	// certain to reach it, and must never exceed it.
	if lb.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("lower bound %v, want 3", lb)
	}
	if _, err := CompletionsLowerBound(db, q, 0, r); err == nil {
		t.Fatal("zero samples accepted")
	}
}

// TestCompletionsLowerBoundIsLowerBound: on random instances the sampled
// bound never exceeds the exact completion count.
func TestCompletionsLowerBoundIsLowerBound(t *testing.T) {
	q := cq.MustParseBCQ("R(x)")
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := core.NewUniformDatabase([]string{"a", "b", "c"})
		nNulls := 1 + r.Intn(4)
		for i := 1; i <= nNulls; i++ {
			db.MustAddFact("R", core.Null(core.NullID(i)))
		}
		exact, err := count.BruteForceCompletions(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := CompletionsLowerBound(db, q, 50, r)
		if err != nil {
			t.Fatal(err)
		}
		if lb.Cmp(exact) > 0 {
			t.Fatalf("seed %d: lower bound %v exceeds exact %v", seed, lb, exact)
		}
	}
}
