package count

import (
	"math/big"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// TestCountWithInequalities exercises the BCQ-with-inequalities extension
// (footnote 4 of the paper) through the counting pipeline.
func TestCountWithInequalities(t *testing.T) {
	// D(R) = {R(?1, ?2)}, uniform domain {a,b,c}; q = R(x,y) ∧ x ≠ y.
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	q := cq.MustParse("R(x, y) ∧ x ≠ y")

	val, method, err := CountValuations(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 9 valuations, 3 diagonal ones fail: 6 satisfy.
	if val.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("#Val = %v, want 6 (method %s)", val, method)
	}
	if method != MethodBruteForce {
		t.Fatalf("inequalities must fall back to brute force, got %s", method)
	}

	comp, _, err := CountCompletions(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Completions with two distinct values: {a,b},{a,c},{b,c} ordered pairs
	// -> 6 distinct completions (each unordered pair twice, as R is a
	// binary relation: R(a,b) vs R(b,a) differ).
	if comp.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("#Comp = %v, want 6", comp)
	}

	// Complement: #Val(q) + #Val(¬q) = 9.
	neg := &cq.Negation{Inner: q}
	nval, _, err := CountValuations(db, neg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).Add(val, nval).Cmp(big.NewInt(9)) != 0 {
		t.Fatalf("complement broken: %v + %v != 9", val, nval)
	}

	// Certainty/possibility integrate too.
	poss, err := IsPossible(db, q, nil)
	if err != nil || !poss {
		t.Fatal("q should be possible")
	}
	cert, err := IsCertain(db, q, nil)
	if err != nil || cert {
		t.Fatal("q should not be certain")
	}
}
