// Explain walks the query planner through one tractable and one hard
// counting problem and prints the plans the library compiles before it
// executes anything.
//
// The first query sits on the FP side of the paper's Table 1 dichotomy
// (Arenas–Barceló–Monet, PODS 2020): the plan is a single closed-form
// node and the decision record shows which theorem fired. The second is
// #P-hard and too large for a joint brute-force sweep — its plan shows
// every polynomial algorithm being rejected with the precise failing
// precondition, and the independent-subquery factorization splitting the
// problem into two sweeps whose spaces add instead of multiplying.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	incdb "github.com/incompletedb/incompletedb"
)

func main() {
	ctx := context.Background()
	s := incdb.NewSolver()

	// --- A tractable problem: Theorem 3.6 ------------------------------
	// Every variable occurs exactly once, so per-atom counts multiply.
	easy := incdb.NewUniformDatabase([]string{"a", "b", "c"})
	easy.MustAddFact("R", incdb.Null(1), incdb.Const("a"))
	easy.MustAddFact("S", incdb.Null(2))
	qEasy := incdb.MustParseQuery("R(x, y) ∧ S(z)")

	pdbEasy, err := s.Prepare(easy)
	if err != nil {
		log.Fatal(err)
	}
	pEasy, err := pdbEasy.Explain(qEasy, incdb.Valuations)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== tractable: a Table 1 FP cell ===")
	fmt.Print(pEasy.Render())
	// Counting executes the very plan the session just rendered — it is
	// cached per canonical query, so nothing is compiled twice.
	res, err := pdbEasy.Count(ctx, qEasy, incdb.Valuations)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: #Val = %v   [%s]\n\n", res.Count, res.Method)

	// --- A hard problem the factorization rescues ----------------------
	// R(x,x) is a hard pattern for every exact algorithm here, the 20
	// cylinders per component cap out the inclusion–exclusion route, and
	// the joint valuation space of the two components is 2^40 — far
	// beyond the default brute-force guard of 2^22. The components share
	// no variables and touch disjoint nulls, so the planner factorizes:
	// two 2^20 sweeps instead of one 2^40 sweep.
	hard := incdb.NewUniformDatabase([]string{"0", "1"})
	for i := 0; i < 20; i++ {
		hard.MustAddFact("R", incdb.Null(incdb.NullID(1+i)), incdb.Null(incdb.NullID(1+(i+1)%20)))
		hard.MustAddFact("S", incdb.Null(incdb.NullID(21+i)), incdb.Null(incdb.NullID(21+(i+1)%20)))
	}
	qHard := incdb.MustParseQuery("R(x, x) ∧ S(y, y)")

	pdbHard, err := s.Prepare(hard)
	if err != nil {
		log.Fatal(err)
	}
	pHard, err := pdbHard.Explain(qHard, incdb.Valuations)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== hard: #P-complete, beyond the joint-sweep guard ===")
	fmt.Print(pHard.Render())
	resHard, err := pdbHard.Count(ctx, qHard, incdb.Valuations)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: #Val = %v   [%s]\n", resHard.Count, resHard.Method)
	fmt.Printf("the sweeps accounted for %v valuations across the factored components (%v total wall time)\n",
		resHard.Stats.SweptValuations, resHard.Stats.Wall.Round(time.Millisecond))
}
