// Sessions demonstrates the session-centric API this library is built
// around: prepare an incomplete database once, answer a whole workload of
// counting questions against it, stream satisfying completions without
// materializing them, and read the solver's cache metrics afterwards.
//
// This is the access pattern the paper family assumes — the journal
// version of Arenas–Barceló–Monet (arXiv:2011.06330) and the
// approximation literature both evaluate *many* queries and variants
// against one incomplete database — and what a service does per tenant.
package main

import (
	"context"
	"fmt"
	"log"

	incdb "github.com/incompletedb/incompletedb"
)

func main() {
	ctx := context.Background()

	// A small product catalog with unknown attributes.
	db := incdb.NewDatabase()
	db.MustAddFact("Item", incdb.Const("lamp"), incdb.Null(1))  // unknown color
	db.MustAddFact("Item", incdb.Const("chair"), incdb.Null(2)) // unknown color
	db.MustAddFact("Stock", incdb.Const("lamp"), incdb.Null(3)) // unknown depot
	db.MustAddFact("Stock", incdb.Const("chair"), incdb.Const("east"))
	must(db.SetDomain(1, []string{"red", "blue"}))
	must(db.SetDomain(2, []string{"red", "blue", "green"}))
	must(db.SetDomain(3, []string{"east", "west"}))

	// One solver per process (or per tenant); one Prepare per database.
	s := incdb.NewSolver(incdb.WithWorkers(4))
	pdb, err := s.Prepare(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared: %v valuations, fingerprint-ready\n\n", pdb.TotalValuations())

	// A workload of questions against the one prepared database.
	workload := []string{
		"Item(i, c) ∧ Stock(i, d)",          // some item with a color is stocked
		"Stock(i, d) ∧ Stock(j, d) ∧ i ≠ j", // two items share a depot
		"Item(i, c) ∧ Item(j, c) ∧ i ≠ j",   // two items share a color
	}
	for _, qs := range workload {
		q := incdb.MustParseQuery(qs)
		res, err := pdb.Count(ctx, q, incdb.Valuations)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("#Val(%s) = %v   [%s]\n", qs, res.Count, res.Method)
		if res.Stats.SweptValuations != nil {
			fmt.Printf("   the sweep accounted for %v valuations (%d workers, %v)\n",
				res.Stats.SweptValuations, res.Stats.Workers, res.Stats.Wall)
		}
	}

	// Stream the worlds where two items share a color, without ever
	// holding the whole completion set in memory.
	q := incdb.MustParseQuery("Item(i, c) ∧ Item(j, c) ∧ i ≠ j")
	fmt.Printf("\ncompletions where two items share a color:\n")
	n := 0
	for inst, err := range pdb.Completions(ctx, q) {
		if err != nil {
			log.Fatal(err)
		}
		n++
		if n <= 3 {
			fmt.Printf("  world %d: %d facts\n", n, countFacts(inst))
		}
	}
	fmt.Printf("  … %d distinct satisfying completions in total\n", n)

	// Repeat questions are cache hits; isomorphic databases would be too.
	res, err := pdb.Count(ctx, incdb.MustParseQuery("Stock(i, d) ∧ Stock(j, d) ∧ i ≠ j"), incdb.Valuations)
	if err != nil {
		log.Fatal(err)
	}
	m := s.Metrics()
	fmt.Printf("\nrepeat query was a cache hit: %v\n", res.Stats.CacheHit)
	fmt.Printf("solver metrics: %d cached results, %d hits, %d misses, %d computations\n",
		m.CacheEntries, m.CacheHits, m.CacheMisses, m.Computations)
}

func countFacts(inst *incdb.Instance) int {
	n := 0
	for _, r := range inst.Relations() {
		n += len(inst.Tuples(r))
	}
	return n
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
