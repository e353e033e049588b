package incompletedb

// Session-vs-free-function benchmarks on a compilation-dominated
// workload: a database with many ground facts and a tiny relevant
// valuation space, so canonicalization, planning and sweep-engine
// compilation dominate each call and execution is trivial. Prepare-then-
// N-queries amortizes all three; the pre-session dispatcher (what every
// free-function call used to do) rebuilds them per call.

import (
	"context"
	"fmt"
	"testing"

	"github.com/incompletedb/incompletedb/internal/count"
)

// compilationHeavyDB builds a database whose per-call fixed costs dwarf
// execution: 600 ground facts plus two nulls over two-value domains (a
// four-valuation relevant space).
func compilationHeavyDB() *Database {
	db := NewDatabase()
	for i := 0; i < 300; i++ {
		a := Const(fmt.Sprintf("a%d", i))
		b := Const(fmt.Sprintf("b%d", i))
		db.MustAddFact("R", a, b)
		db.MustAddFact("S", b, a)
	}
	db.MustAddFact("R", Null(1), Null(2))
	db.SetDomain(1, []string{"a0", "b0"})
	db.SetDomain(2, []string{"a0", "b0"})
	return db
}

var sessionBenchQueries = []string{
	"R(x, x)",
	"R(x, y) ∧ S(y, z)",
	"R(x, y) ∧ x ≠ y",
}

// BenchmarkManyQueriesFreeFunctions answers the query mix through the
// per-call dispatcher — plan construction and engine compilation redone
// every call, exactly what each of the removed free functions used to
// cost.
func BenchmarkManyQueriesFreeFunctions(b *testing.B) {
	db := compilationHeavyDB()
	qs := make([]Query, len(sessionBenchQueries))
	for i, s := range sessionBenchQueries {
		qs[i] = MustParseQuery(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := count.CountValuations(db, qs[i%len(qs)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManyQueriesPrepared answers the same mix through one prepared
// session: plans (and their compiled engines) are cached per canonical
// query, results per fingerprint.
func BenchmarkManyQueriesPrepared(b *testing.B) {
	pdb, err := NewSolver().Prepare(compilationHeavyDB())
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]Query, len(sessionBenchQueries))
	for i, s := range sessionBenchQueries {
		qs[i] = MustParseQuery(s)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdb.Count(ctx, qs[i%len(qs)], Valuations); err != nil {
			b.Fatal(err)
		}
	}
}

// factoredComponentsDB builds a database of len(sizes) independent
// components: component i has its own relation Ci over its own chain of
// sizes[i] nulls (domains {a, b, c}), so the conjunction
// C0(x0, x0) ∧ C1(x1, x1) ∧ … factorizes into len(sizes) independent
// subqueries, each counted over its own component only.
func factoredComponentsDB(sizes []int) *Database {
	db := NewDatabase()
	next := NullID(1)
	for c, nullsPer := range sizes {
		rel := fmt.Sprintf("C%d", c)
		first := next
		for k := 0; k < nullsPer; k++ {
			db.SetDomain(next+NullID(k), []string{"a", "b", "c"})
		}
		for k := 0; k+1 < nullsPer; k++ {
			db.MustAddFact(rel, Null(next+NullID(k)), Null(next+NullID(k+1)))
		}
		db.MustAddFact(rel, Null(next+NullID(nullsPer-1)), Null(first))
		next += NullID(nullsPer)
	}
	return db
}

func factoredComponentsQuery(comps int) Query {
	q := ""
	for c := 0; c < comps; c++ {
		if c > 0 {
			q += " ∧ "
		}
		q += fmt.Sprintf("C%d(x%d, x%d)", c, c, c)
	}
	return MustParseQuery(q)
}

// incrementalRecountSizes is the workload of BenchmarkIncrementalRecount:
// component C0 is the small, write-hot component the deltas land on;
// C1…C11 are an order of magnitude heavier to recount. A recount after a
// C0 delta should pay for C0 only.
var incrementalRecountSizes = []int{4, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}

// BenchmarkIncrementalRecount is the headline mutable-database number:
// after a single-fact delta confined to one of 12 independent
// components, "delta" re-counts through the live session — replanning
// and re-deriving only the touched component and taking the other 11
// from the factor memo — while "full" re-prepares the mutated database
// from scratch and re-counts every component. Each iteration adds a
// distinct constant-only fact (and removes it again, so state stays
// bounded); the distinct constants give every recount a fresh
// fingerprint, so neither path is ever served by the result cache.
// "replan" is the plan half of a live write on its own: one write per
// iteration, in live-mutate's order (add the next ground C0 fact, then
// remove the previous one, so every state is new), then Explain. "write"
// is the same writes with no read: what the session recomputes of its
// canonical digest, and the plan cache it empties.
func BenchmarkIncrementalRecount(b *testing.B) {
	comps := len(incrementalRecountSizes)
	q := factoredComponentsQuery(comps)
	ctx := context.Background()

	b.Run("delta", func(b *testing.B) {
		pdb, err := NewSolver().Prepare(factoredComponentsDB(incrementalRecountSizes))
		if err != nil {
			b.Fatal(err)
		}
		// Warm the plan cache and factor memo: the steady state of a live
		// session.
		if _, err := pdb.Count(ctx, q, Valuations); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := Const(fmt.Sprintf("k%d", i))
			if err := pdb.AddFact("C0", c, c); err != nil {
				b.Fatal(err)
			}
			res, err := pdb.Count(ctx, q, Valuations)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.CacheHit {
				b.Fatal("delta recount must not be a result-cache hit")
			}
			if res.Stats.FactorsReused < comps-1 {
				b.Fatalf("recount re-derived untouched components: reused %d factors, want %d",
					res.Stats.FactorsReused, comps-1)
			}
			pdb.RemoveFact("C0", c, c)
		}
	})

	b.Run("replan", func(b *testing.B) {
		pdb, err := NewSolver().Prepare(factoredComponentsDB(incrementalRecountSizes))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pdb.Count(ctx, q, Valuations); err != nil {
			b.Fatal(err)
		}
		ground := func(j int) Value { return Const(fmt.Sprintf("g%d", j)) }
		if err := pdb.AddFact("C0", ground(0), ground(0)); err != nil {
			b.Fatal(err)
		}
		// The plans below run nothing, so the memo keeps the descriptions
		// the warming count stored: an untouched part is the same node in
		// every plan.
		prev, err := pdb.Explain(q, Valuations)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			if i%2 == 1 {
				if err := pdb.AddFact("C0", ground((i+1)/2), ground((i+1)/2)); err != nil {
					b.Fatal(err)
				}
			} else if !pdb.RemoveFact("C0", ground(i/2-1), ground(i/2-1)) {
				b.Fatal("the previous ground fact was not present")
			}
			pl, err := pdb.Explain(q, Valuations)
			if err != nil {
				b.Fatal(err)
			}
			reused := 0
			for j, c := range pl.Root.Children {
				if c == prev.Root.Children[j] {
					reused++
				}
			}
			if reused < comps-1 {
				b.Fatalf("replanned untouched components: %d parts reused, want %d", reused, comps-1)
			}
			prev = pl
		}
	})

	b.Run("write", func(b *testing.B) {
		pdb, err := NewSolver().Prepare(factoredComponentsDB(incrementalRecountSizes))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pdb.Count(ctx, q, Valuations); err != nil {
			b.Fatal(err)
		}
		ground := func(j int) Value { return Const(fmt.Sprintf("g%d", j)) }
		if err := pdb.AddFact("C0", ground(0), ground(0)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			if i%2 == 1 {
				if err := pdb.AddFact("C0", ground((i+1)/2), ground((i+1)/2)); err != nil {
					b.Fatal(err)
				}
			} else if !pdb.RemoveFact("C0", ground(i/2-1), ground(i/2-1)) {
				b.Fatal("the previous ground fact was not present")
			}
		}
	})

	b.Run("full", func(b *testing.B) {
		db := factoredComponentsDB(incrementalRecountSizes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := Const(fmt.Sprintf("k%d", i))
			db.MustAddFact("C0", c, c)
			pdb, err := NewSolver().Prepare(db)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pdb.Count(ctx, q, Valuations); err != nil {
				b.Fatal(err)
			}
			db.RemoveFact("C0", Const(fmt.Sprintf("k%d", i)), Const(fmt.Sprintf("k%d", i)))
		}
	})
}

// BenchmarkManyQueriesPreparedNoCache isolates the plan-cache win from
// the result cache: every call re-executes its plan, but planning and
// engine compilation are still amortized by the session.
func BenchmarkManyQueriesPreparedNoCache(b *testing.B) {
	pdb, err := NewSolver(WithCacheSize(-1)).Prepare(compilationHeavyDB())
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]Query, len(sessionBenchQueries))
	for i, s := range sessionBenchQueries {
		qs[i] = MustParseQuery(s)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdb.Count(ctx, qs[i%len(qs)], Valuations); err != nil {
			b.Fatal(err)
		}
	}
}
