package incompletedb_test

import (
	"context"
	"fmt"
	"log"

	incdb "github.com/incompletedb/incompletedb"
)

// ExampleSolver prepares the running example of the paper (Example 2.2 /
// Figure 1) once and answers both counting problems through the session,
// each with its method attached.
func ExampleSolver() {
	db := incdb.NewDatabase()
	db.MustAddFact("S", incdb.Const("a"), incdb.Const("b"))
	db.MustAddFact("S", incdb.Null(1), incdb.Const("a"))
	db.MustAddFact("S", incdb.Const("a"), incdb.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})

	s := incdb.NewSolver()
	pdb, err := s.Prepare(db)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	q := incdb.MustParseQuery("S(x, x)")

	val, err := pdb.Count(ctx, q, incdb.Valuations)
	if err != nil {
		log.Fatal(err)
	}
	comp, err := pdb.Count(ctx, q, incdb.Completions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("#Val(q)  = %v   [%s]\n", val.Count, val.Method)
	fmt.Printf("#Comp(q) = %v\n", comp.Count)
	fmt.Printf("total valuations: %v\n", pdb.TotalValuations())

	// A repeated question is answered from the solver's cache.
	again, err := pdb.Count(ctx, q, incdb.Valuations)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache hit: %v\n", again.Stats.CacheHit)
	// Output:
	// #Val(q)  = 4   [exact/theorem-3.7]
	// #Comp(q) = 3
	// total valuations: 6
	// cache hit: true
}

// ExamplePreparedDB_mutation mutates a live session in place: each
// write replays through the session's delta path (emptying the cached
// plans, keeping the factors it did not touch), and the next count
// reflects it immediately — no re-Prepare.
func ExamplePreparedDB_mutation() {
	db := incdb.NewDatabase()
	db.MustAddFact("S", incdb.Const("a"), incdb.Const("b"))
	db.MustAddFact("S", incdb.Null(1), incdb.Const("a"))
	db.SetDomain(1, []string{"a", "b", "c"})

	pdb, err := incdb.NewSolver().Prepare(db)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	q := incdb.MustParseQuery("S(x, x)")

	count := func() {
		res, err := pdb.Count(ctx, q, incdb.Valuations)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("#Val(q) = %v at epoch %d\n", res.Count, res.Stats.Epoch)
	}
	count()

	// A ground fact satisfying q makes every valuation a witness.
	if err := pdb.AddFact("S", incdb.Const("c"), incdb.Const("c")); err != nil {
		log.Fatal(err)
	}
	count()

	pdb.RemoveFact("S", incdb.Const("c"), incdb.Const("c"))
	count()

	// Growing ?1's domain adds a valuation that does not satisfy q.
	if err := pdb.ExtendDomain(1, "d"); err != nil {
		log.Fatal(err)
	}
	count()
	fmt.Printf("total valuations: %v\n", pdb.TotalValuations())
	// Output:
	// #Val(q) = 1 at epoch 3
	// #Val(q) = 3 at epoch 4
	// #Val(q) = 1 at epoch 5
	// #Val(q) = 1 at epoch 6
	// total valuations: 4
}

// ExamplePreparedDB_completions streams the distinct satisfying
// completions of Figure 1 without materializing the whole set.
func ExamplePreparedDB_completions() {
	db := incdb.NewDatabase()
	db.MustAddFact("S", incdb.Const("a"), incdb.Const("b"))
	db.MustAddFact("S", incdb.Null(1), incdb.Const("a"))
	db.MustAddFact("S", incdb.Const("a"), incdb.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})

	pdb, err := incdb.NewSolver().Prepare(db)
	if err != nil {
		log.Fatal(err)
	}
	q := incdb.MustParseQuery("S(x, x)")

	n := 0
	for inst, err := range pdb.Completions(context.Background(), q) {
		if err != nil {
			log.Fatal(err)
		}
		n++
		fmt.Printf("completion %d satisfies q: %v\n", n, q.Eval(inst))
	}
	fmt.Printf("streamed %d distinct satisfying completions (= #Comp(q))\n", n)
	// Output:
	// completion 1 satisfies q: true
	// completion 2 satisfies q: true
	// completion 3 satisfies q: true
	// streamed 3 distinct satisfying completions (= #Comp(q))
}
