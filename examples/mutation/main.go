// Mutation demonstrates mutable databases with incremental recount: a
// prepared session absorbs fact and domain deltas in place, and the
// next count re-derives only what the delta could have changed — a
// write empties the session's plan cache, and on factorized queries the
// untouched independent components take their plan and their count from
// the session's factor memo instead of being replanned and re-swept.
//
// The same delta surface is exposed over HTTP (POST/DELETE /v1/facts,
// POST /v1/domain on the live session of `incdb serve -db`) and from
// the command line (`incdb mutate`).
package main

import (
	"context"
	"fmt"
	"log"

	incdb "github.com/incompletedb/incompletedb"
)

func main() {
	ctx := context.Background()

	// Four independent components: each relation Ci touches only its own
	// nulls, so the conjunction below factorizes into four independent
	// subqueries. C0 is the small, write-hot component; C1–C3 are the
	// heavy ones a recount should not have to revisit.
	db := incdb.NewDatabase()
	db.MustAddFact("C0", incdb.Null(1), incdb.Null(1))
	must(db.SetDomain(1, []string{"a", "b", "c"}))
	next := incdb.NullID(2)
	for c := 1; c <= 3; c++ {
		rel := fmt.Sprintf("C%d", c)
		for k := incdb.NullID(0); k < 6; k++ {
			must(db.SetDomain(next+k, []string{"a", "b", "c"}))
		}
		for k := incdb.NullID(0); k < 5; k++ {
			db.MustAddFact(rel, incdb.Null(next+k), incdb.Null(next+k+1))
		}
		db.MustAddFact(rel, incdb.Null(next+5), incdb.Null(next))
		next += 6
	}

	pdb, err := incdb.NewSolver().Prepare(db)
	if err != nil {
		log.Fatal(err)
	}
	q := incdb.MustParseQuery("C0(x0, x0) ∧ C1(x1, x1) ∧ C2(x2, x2) ∧ C3(x3, x3)")

	count := func(label string) {
		res, err := pdb.Count(ctx, q, incdb.Valuations)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s #Val(q) = %v  (epoch %d, %d factors reused, cache hit %v)\n",
			label, res.Count, res.Stats.Epoch, res.Stats.FactorsReused, res.Stats.CacheHit)
	}

	count("initial")

	// A ground fact lands on C0 only. The session drops its cached
	// plans, and the recount rebuilds the plan, taking C1–C3 from the
	// factor memo: only C0 is planned and counted again.
	if err := pdb.AddFact("C0", incdb.Const("a"), incdb.Const("a")); err != nil {
		log.Fatal(err)
	}
	count("after AddFact C0(a, a)")

	if !pdb.RemoveFact("C0", incdb.Const("a"), incdb.Const("a")) {
		log.Fatal("fact was not removed")
	}
	count("after RemoveFact")

	// Growing a null's domain is a delta too: only the memoized factors
	// whose facts hold ?1 are dropped.
	if err := pdb.ExtendDomain(1, "d"); err != nil {
		log.Fatal(err)
	}
	count("after ExtendDomain ?1 += d")

	fmt.Printf("\nsession epoch %d, total valuations now %v\n",
		pdb.Epoch(), pdb.TotalValuations())
	fmt.Println("\nthe same deltas over HTTP against `incdb serve -db data.idb`:")
	fmt.Println(`  curl -s localhost:8333/v1/facts  -d '{"facts": ["C0(a, a)"]}'`)
	fmt.Println(`  curl -s -X DELETE localhost:8333/v1/facts -d '{"facts": ["C0(a, a)"]}'`)
	fmt.Println(`  curl -s localhost:8333/v1/domain -d '{"null": "?1", "values": ["d"]}'`)
	fmt.Println("or in one ordered command: incdb mutate -add 'C0(a, a)' -extend '?1 d' -show")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
