package solver

import (
	"context"
	"math/big"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// muOf computes µ_k(q, T) for db's table through Solver.Mu with the
// result cache off, so every call counts.
func muOf(t *testing.T, db *core.Database, q cq.Query, k int) *big.Rat {
	t.Helper()
	res, err := NewSolver(WithCacheSize(-1)).Mu(context.Background(), db, q, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Ratio
}

func TestMuKConvergesToZero(t *testing.T) {
	// T = {S(⊥1, ⊥2)}, q = S(x,x): µ_k = 1/k -> 0.
	db := core.NewDatabase()
	db.MustAddFact("S", core.Null(1), core.Null(2))
	q := cq.MustParseBCQ("S(x, x)")
	for _, k := range []int{1, 2, 5, 50} {
		if mu, want := muOf(t, db, q, k), big.NewRat(1, int64(k)); mu.Cmp(want) != 0 {
			t.Fatalf("µ_%d = %v, want %v", k, mu, want)
		}
	}
}

func TestMuKConvergesToOne(t *testing.T) {
	// Same table, q = ¬S(x,x): µ_k = 1 − 1/k -> 1.
	db := core.NewDatabase()
	db.MustAddFact("S", core.Null(1), core.Null(2))
	q := cq.MustParse("!S(x, x)")
	for _, k := range []int{2, 10, 30} {
		want := new(big.Rat).Sub(big.NewRat(1, 1), big.NewRat(1, int64(k)))
		if mu := muOf(t, db, q, k); mu.Cmp(want) != 0 {
			t.Fatalf("µ_%d = %v, want %v", k, mu, want)
		}
	}
}

func TestMuKUsesExactAlgorithms(t *testing.T) {
	// A table far beyond brute force: 60 nulls in two unary relations with
	// q = R(x) ∧ S(x); µ_k must succeed via Theorem 3.9's algorithm.
	db := core.NewDatabase()
	for i := 1; i <= 30; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)))
		db.MustAddFact("S", core.Null(core.NullID(30+i)))
	}
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	if mu := muOf(t, db, q, 8); mu.Sign() <= 0 || mu.Cmp(big.NewRat(1, 1)) >= 0 {
		t.Fatalf("µ_8 = %v out of (0,1)", mu)
	}
}

func TestMuKErrors(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("S", core.Null(1))
	if _, err := NewSolver(WithCacheSize(-1)).Mu(context.Background(), db, cq.MustParseBCQ("S(x)"), 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestMuKIgnoresAttachedDomains: the attached (non-uniform) domains play no
// role; only the table matters.
func TestMuKIgnoresAttachedDomains(t *testing.T) {
	a := core.NewDatabase()
	a.MustAddFact("S", core.Null(1), core.Null(2))
	a.SetDomain(1, []string{"zzz"})
	a.SetDomain(2, []string{"yyy"})
	b := core.NewUniformDatabase([]string{"q", "w"})
	b.MustAddFact("S", core.Null(1), core.Null(2))
	q := cq.MustParseBCQ("S(x, x)")
	if ma, mb := muOf(t, a, q, 4), muOf(t, b, q, 4); ma.Cmp(mb) != 0 {
		t.Fatalf("µ differs: %v vs %v", ma, mb)
	}
}

// TestInequalityMuK: µ_k(R(x,y) ∧ x≠y) over T = {R(⊥1,⊥2)} equals
// 1 − 1/k → 1 — the complement of the 0-1-law example.
func TestInequalityMuK(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Null(2))
	q := cq.MustParse("R(x, y) ∧ x ≠ y")
	for _, k := range []int{2, 5, 10} {
		if mu, want := muOf(t, db, q, k), big.NewRat(int64(k-1), int64(k)); mu.Cmp(want) != 0 {
			t.Fatalf("µ_%d = %v, want %v", k, mu, want)
		}
	}
}
