package incompletedb

// Benchmark harness: one benchmark (family) per reproduced table/figure of
// the paper, plus ablations on the substrate. Section tags such as E-T1
// and E-F1 are the experiment IDs `incdb experiments` reports (see the
// README's command-line section).
//
//	go test -bench=. -benchmem
//
// The scaling families (ValCodd / ValUniform / CompUniform, exact vs brute)
// are the repository's "figures": the exact algorithms grow polynomially in
// the instance size while the brute-force baseline grows exponentially and
// drops out.

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/cnf"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/cylinder"
	"github.com/incompletedb/incompletedb/internal/graphs"
	"github.com/incompletedb/incompletedb/internal/plan"
	"github.com/incompletedb/incompletedb/internal/reductions"
)

// --- E-T1: Table 1 ----------------------------------------------------------

func BenchmarkTable1Classification(b *testing.B) {
	queries := []*cq.BCQ{
		cq.MustParseBCQ("R(x, x)"),
		cq.MustParseBCQ("R(x) ∧ S(x, y) ∧ T(y)"),
		cq.MustParseBCQ("R(x, y) ∧ S(x, y)"),
		cq.MustParseBCQ("A(x, y, z) ∧ B(z, w) ∧ C(w) ∧ D(v)"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := classify.ClassifyAll(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E-F1: Figure 1 ---------------------------------------------------------

func BenchmarkFigure1Counts(b *testing.B) {
	db := core.NewDatabase()
	db.MustAddFact("S", core.Const("a"), core.Const("b"))
	db.MustAddFact("S", core.Null(1), core.Const("a"))
	db.MustAddFact("S", core.Const("a"), core.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})
	q := cq.MustParseBCQ("S(x, x)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := count.BruteForceValuations(db, q, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := count.BruteForceCompletions(db, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E-FIG-VAL-CODD: Theorem 3.7 exact vs brute -----------------------------

func coddScalingDB(n int) *core.Database {
	db := core.NewDatabase()
	for i := 0; i < n; i++ {
		a, bb := core.NullID(2*i+1), core.NullID(2*i+2)
		db.MustAddFact("R", core.Null(a), core.Null(bb))
		db.SetDomain(a, []string{"a", "b", "c"})
		db.SetDomain(bb, []string{"b", "c", "d"})
	}
	return db
}

func BenchmarkValCoddExact(b *testing.B) {
	q := cq.MustParseBCQ("R(x, x)")
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := coddScalingDB(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count.ValuationsCodd(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serialBrute pins the brute-force baselines to one worker so the scaling
// figures stay comparable to the parallel variants below.
var serialBrute = &count.Options{Workers: 1}

func BenchmarkValCoddBrute(b *testing.B) {
	q := cq.MustParseBCQ("R(x, x)")
	for _, n := range []int{2, 4, 6} { // 9^n valuations
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := coddScalingDB(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count.BruteForceValuations(db, q, serialBrute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-FIG-VAL-UNI: Theorem 3.9 exact vs brute ------------------------------

func uniformScalingDB(n int) *core.Database {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 0; i < n; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i+1)))
		db.MustAddFact("S", core.Null(core.NullID(n+i+1)))
	}
	return db
}

func BenchmarkValUniformExact(b *testing.B) {
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := uniformScalingDB(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count.ValuationsUniform(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkValUniformBrute(b *testing.B) {
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	for _, n := range []int{2, 4, 6} { // 3^(2n) valuations
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := uniformScalingDB(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count.BruteForceValuations(db, q, serialBrute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-FIG-COMP-UNI: Theorem 4.6 exact vs brute -----------------------------

func BenchmarkCompUniformExact(b *testing.B) {
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := uniformScalingDB(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count.CompletionsUniform(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompUniformBrute(b *testing.B) {
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	for _, n := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db := uniformScalingDB(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count.BruteForceCompletions(db, q, serialBrute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-PAR: sharded brute force, serial vs worker pool ----------------------
//
// The parallel variants ride the same scaling databases as the serial
// figures above (n=6: 531441 valuations, past the engine's serial cutoff)
// and record the first perf baseline of the sharded valuation-space
// engine. On a single-core machine the workers>1 rows measure pure
// sharding overhead.

func bruteWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

func BenchmarkValBruteParallel(b *testing.B) {
	q := cq.MustParseBCQ("R(x, x)")
	db := coddScalingDB(6) // 9^6 valuations
	for _, w := range bruteWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := &count.Options{Workers: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count.BruteForceValuations(db, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCompBruteParallel(b *testing.B) {
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	db := uniformScalingDB(6) // 3^12 valuations
	for _, w := range bruteWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := &count.Options{Workers: w}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := count.BruteForceCompletions(db, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-PRUNE: relevant-null pruning ------------------------------------------
//
// The query touches 1 of k relations; the other relations carry nulls with
// domains of size d. Relevant-null pruning factors those nulls out of the
// enumeration, so ns/op must stay flat as d grows (the full valuation
// space grows as d^8 while the enumerated space stays at 3^4 = 81).

func BenchmarkValBrutePruning(b *testing.B) {
	q := cq.MustParseBCQ("R(x, x)")
	for _, d := range []int{2, 16, 128, 1024} {
		b.Run(fmt.Sprintf("irrelevantDom=%d", d), func(b *testing.B) {
			db := core.NewDatabase()
			db.MustAddFact("R", core.Null(1), core.Null(2))
			db.MustAddFact("R", core.Null(3), core.Null(4))
			db.SetDomain(1, []string{"a", "b", "c"})
			db.SetDomain(2, []string{"a", "b", "c"})
			db.SetDomain(3, []string{"a", "b", "c"})
			db.SetDomain(4, []string{"a", "b", "c"})
			dom := make([]string, d)
			for i := range dom {
				dom[i] = fmt.Sprintf("v%d", i)
			}
			for j := 0; j < 8; j++ {
				n := core.NullID(10 + j)
				db.MustAddFact(fmt.Sprintf("Junk%d", j%4), core.Null(n))
				db.SetDomain(n, dom)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := count.BruteForceValuations(db, q, serialBrute); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-FACTOR: independent-subquery factorization -----------------------------
//
// Two variable-disjoint hard components (20-null R-cycle, 20-null
// S-cycle over {0,1}): the joint sweep would enumerate 2^40 valuations —
// far beyond the default guard of 2^22, so the pre-planner dispatcher
// REFUSED this query — and with 20 cylinders per component the
// inclusion–exclusion route is capped out too. The factorization node
// sweeps 2×2^20 instead of 2^40 (the component spaces ADD rather than
// multiply) and answers exactly in tens of milliseconds.

func BenchmarkValFactorized(b *testing.B) {
	db := core.NewUniformDatabase([]string{"0", "1"})
	for i := 0; i < 20; i++ {
		db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%20)))
		db.MustAddFact("S", core.Null(core.NullID(21+i)), core.Null(core.NullID(21+(i+1)%20)))
	}
	q := cq.MustParseBCQ("R(x, x) ∧ S(y, y)")
	// The joint space must genuinely trip the guard: that is the claim.
	if _, err := count.BruteForceValuations(db, q, nil); err == nil {
		b.Fatal("joint sweep fit the guard; grow the instance")
	}
	// Each even 20-cycle leaves exactly the 2 alternating assignments
	// unsatisfied: (2^20 − 2)^2 satisfying valuations.
	per := big.NewInt(1<<20 - 2)
	want := new(big.Int).Mul(per, per)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := count.CountValuations(db, q, nil)
		if err != nil {
			b.Fatal(err)
		}
		if n.Cmp(want) != 0 {
			b.Fatalf("count %v, want %v", n, want)
		}
	}
}

// --- E-C5.3: Karp–Luby FPRAS -------------------------------------------------

// The estimator benchmarks prepare a session per iteration, so ns/op
// covers Prepare plus one estimate — the same work as the one-shot
// estimator calls their earlier baselines timed.

func BenchmarkKarpLuby(b *testing.B) {
	d := 10
	dom := make([]string, d)
	for i := range dom {
		dom[i] = fmt.Sprintf("v%d", i)
	}
	db := core.NewUniformDatabase(dom)
	db.MustAddFact("R", core.Null(1), core.Null(2))
	for i := 0; i < 30; i++ {
		db.MustAddFact("F", core.Null(core.NullID(10+i)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	ctx := context.Background()
	s := NewSolver()
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pdb, err := s.Prepare(db)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pdb.Estimate(ctx, q, eps, 0.05, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// serve-cold's estimate op: R(x, x) over a 10-cycle of nulls over
	// {a, b} at ε = δ = 0.3, ten cylinders and 632 samples.
	cycle := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 10; i++ {
		cycle.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%10+1)))
	}
	b.Run("cycle=10,eps=0.3", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pdb, err := s.Prepare(cycle)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pdb.Estimate(ctx, q, 0.3, 0.3, r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMonteCarlo(b *testing.B) {
	db := uniformScalingDB(4)
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	ctx := context.Background()
	s := NewSolver()
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pdb, err := s.Prepare(db)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pdb.MonteCarlo(ctx, q, 1000, r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E-P5.2: cylinder union --------------------------------------------------

func BenchmarkCylinderUnion(b *testing.B) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("R", core.Null(2), core.Null(3))
	db.MustAddFact("S", core.Null(3))
	db.MustAddFact("S", core.Const("a"))
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set, err := cylinder.Build(db, q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := set.UnionCountParallel(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// cycleSet builds the cylinders of R(x, x) over an n-cycle R(?1, ?2), …,
// R(?n, ?1) over {a, b}: n cylinders of one two-null class each, whose
// intersections are never empty, so inclusion–exclusion visits all 2^n − 1
// subset terms.
func cycleSet(b *testing.B, n int) *cylinder.Set {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= n; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%n+1)))
	}
	set, err := cylinder.Build(db, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkCylinderUnionCycle is the inclusion–exclusion walk alone, on
// one worker: n=10 is the shape of serve-cold's cylinder-ie op, and n=18
// the largest set a default plan sends to inclusion–exclusion. The
// workers=2 case is the sharded walk a multi-core service runs.
func BenchmarkCylinderUnionCycle(b *testing.B) {
	for _, c := range []struct{ n, workers int }{{10, 1}, {14, 1}, {18, 1}, {18, 2}} {
		name := fmt.Sprintf("n=%d", c.n)
		if c.workers > 1 {
			name += fmt.Sprintf(",workers=%d", c.workers)
		}
		b.Run(name, func(b *testing.B) {
			set := cycleSet(b, c.n)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := set.UnionCountParallel(ctx, c.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// joinBenchDB is serve-cold's join database at a given size: ground pairs
// R(a_i, b_i), S(b_i, a_i), then R(?1, ?2) over {a_0, b_0}. The join
// R(x, y) ∧ S(y, z) has pairs+1 cylinders.
func joinBenchDB(pairs int) *core.Database {
	db := core.NewDatabase()
	db.SetDomain(1, []string{"a_0", "b_0"})
	db.SetDomain(2, []string{"a_0", "b_0"})
	for i := 0; i < pairs; i++ {
		a, c := core.Const(fmt.Sprintf("a_%d", i)), core.Const(fmt.Sprintf("b_%d", i))
		db.MustAddFact("R", a, c)
		db.MustAddFact("S", c, a)
	}
	db.MustAddFact("R", core.Null(1), core.Null(2))
	return db
}

// chainBenchDB is a chain of facts R(?1, ?2), …, R(?n, ?n+1) over {a, b}:
// R(x, y) ∧ R(y, z) unifies every pair of its facts, n² cylinders.
func chainBenchDB(n int) *core.Database {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= n; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i+1)))
	}
	return db
}

// BenchmarkCylinderBuild is cylinder construction alone, on serve-cold's
// join op R(x, y) ∧ S(y, z): join=k builds all k+1 cylinders over k
// ground pairs, and cap=100 stops at cylinder MaxUnionCylinders+1 of the
// 100-pair join, as the planner does.
func BenchmarkCylinderBuild(b *testing.B) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(y, z)")
	for _, pairs := range []int{100, 1600} {
		db := joinBenchDB(pairs)
		b.Run(fmt.Sprintf("join=%d", pairs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cylinder.Build(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	db := joinBenchDB(100)
	b.Run("cap=100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cylinder.BuildAtMost(db, q, cylinder.MaxUnionCylinders); !errors.Is(err, cylinder.ErrTooManyCylinders) {
				b.Fatalf("capped build: %v, want ErrTooManyCylinders", err)
			}
		}
	})
}

// BenchmarkPlanBuild is plan.Build alone on #Val of queries past the
// inclusion–exclusion cap: the join of serve-cold at 100 and 3200 pairs,
// and R(x, y) ∧ R(y, z) over a 250-fact chain (62,500 cylinders). Each
// rejects the cylinder route and plans a sweep.
func BenchmarkPlanBuild(b *testing.B) {
	join := cq.MustParseBCQ("R(x, y) ∧ S(y, z)")
	for _, c := range []struct {
		name string
		db   *core.Database
		q    cq.Query
	}{
		{"join=100", joinBenchDB(100), join},
		{"join=3200", joinBenchDB(3200), join},
		{"chain=250", chainBenchDB(250), cq.MustParseBCQ("R(x, y) ∧ R(y, z)")},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Build(c.db, c.q, classify.Valuations, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Reduction benchmarks (E-P3.4, E-P3.11, E-P4.2, E-P5.6, E-T6.3, E-T6.4) --

func BenchmarkReduction3Coloring(b *testing.B) {
	g := graphs.Random(5, 0.5, rand.New(rand.NewSource(2)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		red := reductions.ThreeColoringToVal(g)
		val, err := count.BruteForceValuations(red.DB, red.Query, nil)
		if err != nil {
			b.Fatal(err)
		}
		red.Recover(val)
	}
}

func BenchmarkReductionVertexCover(b *testing.B) {
	g := graphs.Random(4, 0.5, rand.New(rand.NewSource(2)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		red := reductions.VertexCoversToCompCodd(g)
		comp, err := count.BruteForceCompletions(red.DB, red.Query, nil)
		if err != nil {
			b.Fatal(err)
		}
		red.Recover(comp)
	}
}

func BenchmarkReductionBISLinearSystem(b *testing.B) {
	bip := graphs.RandomBipartite(2, 2, 0.5, rand.New(rand.NewSource(3)))
	oracle := func(db *core.Database, q *cq.BCQ) (*big.Int, error) {
		return count.BruteForceValuations(db, q, nil)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reductions.BISViaLinearSystem(bip, oracle); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReductionGadget(b *testing.B) {
	g := graphs.Cycle(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		red := reductions.ColorabilityGadget(g)
		if _, err := count.BruteForceCompletions(red.DB, red.Query, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReductionK3SAT(b *testing.B) {
	f, err := cnf.Random3CNF(4, 3, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		red, err := reductions.K3SATToCompNeg(f, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := count.BruteForceCompletions(red.DB, red.Query, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReductionHamSubgraphs(b *testing.B) {
	g := graphs.Random(5, 0.6, rand.New(rand.NewSource(5)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		red, err := reductions.HamSubgraphsToVal(g, 3)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := count.BruteForceValuations(red.DB, red.Query, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E-B5: stretch/Tutte identity --------------------------------------------

func BenchmarkStretchTutte(b *testing.B) {
	g := graphs.Cycle(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk, err := graphs.Stretch(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := graphs.CountPseudoforestSubsets(sk); err != nil {
			b.Fatal(err)
		}
		if _, err := graphs.BicircularTutteX1(g, big.NewRat(4, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate ablations ------------------------------------------------------

func BenchmarkQueryEval(b *testing.B) {
	inst := core.NewInstance()
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		inst.Add("R", fmt.Sprint(r.Intn(20)), fmt.Sprint(r.Intn(20)))
	}
	for i := 0; i < 50; i++ {
		inst.Add("S", fmt.Sprint(r.Intn(20)))
	}
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Eval(inst)
	}
}

func BenchmarkPatternContainment(b *testing.B) {
	q := cq.MustParseBCQ("A(x, y, z) ∧ B(z, w) ∧ C(w) ∧ D(v, v)")
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cq.IsPatternOf(cq.PatternPath, q)
		}
	})
	b.Run("predicate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cq.HasPathPattern(q)
		}
	})
}

func BenchmarkCompletionDedup(b *testing.B) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 1; i <= 8; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := count.BruteForceAllCompletions(db, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValuationEnumeration(b *testing.B) {
	db := uniformScalingDB(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		db.ForEachValuation(func(core.Valuation) bool { n++; return true })
	}
}

// --- E-MU: Libkin's µ_k through the planner ----------------------------------

// BenchmarkMuK times Solver.Mu with the result cache off, so every
// iteration prepares the uniform database over {1, …, k} and counts.
func BenchmarkMuK(b *testing.B) {
	db := core.NewDatabase()
	for i := 1; i <= 10; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)))
		db.MustAddFact("S", core.Null(core.NullID(10+i)))
	}
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	s := NewSolver(WithCacheSize(-1))
	ctx := context.Background()
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Mu(ctx, db, q, k, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Extension ablations ------------------------------------------------------

func BenchmarkInequalityEval(b *testing.B) {
	inst := core.NewInstance()
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		inst.Add("R", fmt.Sprint(r.Intn(10)), fmt.Sprint(r.Intn(10)))
	}
	q := cq.MustParse("R(x, y) ∧ x ≠ y")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Eval(inst)
	}
}

func BenchmarkNegationComplementDispatch(b *testing.B) {
	db := uniformScalingDB(16)
	neg := &cq.Negation{Inner: cq.MustParseBCQ("R(x) ∧ S(x)")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := count.CountValuations(db, neg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCylinderDispatchLargeSpace(b *testing.B) {
	// 40 free binary nulls: 2^82 valuations, counted exactly through the
	// cylinder inclusion–exclusion fallback.
	db := core.NewUniformDatabase([]string{"0", "1"})
	for i := 1; i <= 40; i++ {
		db.MustAddFact("F", core.Null(core.NullID(i)), core.Null(core.NullID(40+i)))
	}
	db.MustAddFact("R", core.Null(1), core.Null(2))
	q := cq.MustParseBCQ("R(x, x)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, m, err := count.CountValuations(db, q, nil)
		if err != nil || m != count.MethodCylinderIE || n.Sign() <= 0 {
			b.Fatalf("method %s, err %v", m, err)
		}
	}
}
