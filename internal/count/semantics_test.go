package count

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

func TestIsCertainAndPossible(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("S", core.Const("a"), core.Const("b"))
	db.MustAddFact("S", core.Null(1), core.Const("a"))
	db.SetDomain(1, []string{"a", "b"})

	// S(x,y) holds in every completion.
	cert, err := IsCertain(db, cq.MustParseBCQ("S(x, y)"), nil)
	if err != nil || !cert {
		t.Fatalf("S(x,y) should be certain: %v %v", cert, err)
	}
	// S(x,x) holds only when ν(?1) = a.
	cert, err = IsCertain(db, cq.MustParseBCQ("S(x, x)"), nil)
	if err != nil || cert {
		t.Fatalf("S(x,x) should not be certain: %v %v", cert, err)
	}
	poss, err := IsPossible(db, cq.MustParseBCQ("S(x, x)"), nil)
	if err != nil || !poss {
		t.Fatalf("S(x,x) should be possible: %v %v", poss, err)
	}
	// An atom over an absent relation is impossible.
	poss, err = IsPossible(db, cq.MustParseBCQ("T(x)"), nil)
	if err != nil || poss {
		t.Fatalf("T(x) should be impossible: %v %v", poss, err)
	}
}

// TestCertainPossibleConsistentWithCounts: certain ⟺ #Val = total, and
// possible ⟺ #Val > 0.
func TestCertainPossibleConsistentWithCounts(t *testing.T) {
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomUniformDB(r, map[string]int{"R": 1, "S": 1}, 2, 3, 3)
		val, err := BruteForceValuations(db, q, nil)
		if err != nil {
			return false
		}
		total, err := db.NumValuations()
		if err != nil {
			return false
		}
		cert, err := IsCertain(db, q, nil)
		if err != nil {
			return false
		}
		poss, err := IsPossible(db, q, nil)
		if err != nil {
			return false
		}
		return cert == (val.Cmp(total) == 0) && poss == (val.Sign() > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIsCertainGuard(t *testing.T) {
	db := core.NewUniformDatabase([]string{"0", "1"})
	for i := 1; i <= 40; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	if _, err := IsCertain(db, cq.MustParseBCQ("R(x)"), nil); err == nil {
		t.Fatal("guard not enforced")
	}
	if _, err := IsPossible(db, cq.MustParseBCQ("R(x)"), nil); err == nil {
		t.Fatal("guard not enforced")
	}
}
