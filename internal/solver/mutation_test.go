package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// The mutation-consistency property: a live session, after any
// interleaving of AddFact / RemoveFact / ExtendDomain deltas, answers
// every counting and decision question bit-identically to a session
// prepared from scratch on the mutated database. This pins the whole
// delta path — plan-cache purges, factor-memo reuse, Codd-flip resets —
// against the rebuild baseline.

// mutationQueries spans the query classes of the acceptance checklist:
// BCQ, UCQ, negation and inequality.
var mutationQueries = []cq.Query{
	cq.MustParseBCQ("R(x, y) ∧ S(y)"),
	cq.MustParse("S(x) | T(y, y)"),
	&cq.Negation{Inner: cq.MustParseBCQ("R(x, y)")},
	cq.MustParse("R(x, y) ∧ x ≠ y"),
}

// seedDB builds the starting database of one of the three table shapes:
// 0 = naïve (a repeated null), 1 = Codd (every null occurs once),
// 2 = uniform.
func seedDB(shape int) *core.Database {
	var db *core.Database
	if shape == 2 {
		db = core.NewUniformDatabase([]string{"a", "b"})
	} else {
		db = core.NewDatabase()
		for n := core.NullID(1); n <= 3; n++ {
			if err := db.SetDomain(n, []string{"a", "b"}); err != nil {
				panic(err)
			}
		}
	}
	db.MustAddFact("R", core.Null(1), core.Const("a"))
	db.MustAddFact("S", core.Null(2))
	if shape == 0 {
		// Repeat null 1: a naïve (non-Codd) table.
		db.MustAddFact("T", core.Null(1), core.Null(3))
	} else {
		db.MustAddFact("T", core.Const("b"), core.Null(3))
	}
	return db
}

// mutateSession applies one random mutation through the session's own
// mutation surface (or, one time in six, directly to the database, to
// exercise the lazy resynchronization path).
func mutateSession(t *testing.T, r *rand.Rand, p *PreparedDB) {
	t.Helper()
	db := p.Database()
	vals := []string{"a", "b", "c"}
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 1}, {"T", 2}, {"Side", 1}}
	switch r.Intn(6) {
	case 0, 1, 2: // add a fact, sometimes with fresh or repeated nulls
		rel := rels[r.Intn(len(rels))]
		nulls := db.Nulls()
		maxn := core.NullID(0)
		for _, n := range nulls {
			if n > maxn {
				maxn = n
			}
		}
		args := make([]core.Value, rel.arity)
		for i := range args {
			switch {
			case len(nulls) > 0 && r.Intn(3) == 0:
				args[i] = core.Null(nulls[r.Intn(len(nulls))])
			case r.Intn(4) == 0: // fresh null
				maxn++
				if !db.Uniform() {
					if err := p.ExtendDomain(maxn, vals[:1+r.Intn(2)]...); err != nil {
						t.Fatal(err)
					}
				}
				args[i] = core.Null(maxn)
			default:
				args[i] = core.Const(vals[r.Intn(len(vals))])
			}
		}
		if r.Intn(6) == 0 {
			db.MustAddFact(rel.name, args...) // bypass the session: lazy sync
			return
		}
		if err := p.AddFact(rel.name, args...); err != nil {
			t.Fatal(err)
		}
	case 3: // remove a random fact
		facts := db.Facts()
		if len(facts) == 0 {
			return
		}
		f := facts[r.Intn(len(facts))]
		p.RemoveFact(f.Rel, f.Args...)
	case 4, 5: // extend a domain
		if db.Uniform() {
			if err := p.ExtendUniformDomain(vals[r.Intn(len(vals))] + "u"); err != nil {
				t.Fatal(err)
			}
			return
		}
		nulls := db.Nulls()
		if len(nulls) == 0 {
			return
		}
		if err := p.ExtendDomain(nulls[r.Intn(len(nulls))], vals[r.Intn(len(vals))]+"x"); err != nil {
			t.Fatal(err)
		}
	}
}

// checkAgainstRebuild compares every (query, question) answer of the live
// session against a session prepared from scratch on a clone of the
// mutated database.
func checkAgainstRebuild(t *testing.T, ctx context.Context, p *PreparedDB, fresh *Solver, seed int64, step int) {
	t.Helper()
	ref, err := fresh.Prepare(p.Database().Clone())
	if err != nil {
		t.Fatalf("seed %d step %d: rebuild Prepare: %v", seed, step, err)
	}
	for qi, q := range mutationQueries {
		for _, kind := range []classify.CountingKind{classify.Valuations, classify.Completions} {
			got, err := p.Count(ctx, q, kind)
			if err != nil {
				t.Fatalf("seed %d step %d q%d %v: session count: %v", seed, step, qi, kind, err)
			}
			want, err := ref.Count(ctx, q, kind)
			if err != nil {
				t.Fatalf("seed %d step %d q%d %v: rebuild count: %v", seed, step, qi, kind, err)
			}
			if got.Count.Cmp(want.Count) != 0 {
				t.Fatalf("seed %d step %d q%d %v: session %v (method %s, reused %d), rebuild %v (method %s)",
					seed, step, qi, kind, got.Count, got.Method, got.Stats.FactorsReused, want.Count, want.Method)
			}
		}
		gc, err := p.Certain(ctx, q)
		if err != nil {
			t.Fatalf("seed %d step %d q%d: session certain: %v", seed, step, qi, err)
		}
		wc, err := ref.Certain(ctx, q)
		if err != nil {
			t.Fatalf("seed %d step %d q%d: rebuild certain: %v", seed, step, qi, err)
		}
		if *gc.Holds != *wc.Holds {
			t.Fatalf("seed %d step %d q%d: session certain=%v, rebuild %v", seed, step, qi, *gc.Holds, *wc.Holds)
		}
		gp, err := p.Possible(ctx, q)
		if err != nil {
			t.Fatalf("seed %d step %d q%d: session possible: %v", seed, step, qi, err)
		}
		wp, err := ref.Possible(ctx, q)
		if err != nil {
			t.Fatalf("seed %d step %d q%d: rebuild possible: %v", seed, step, qi, err)
		}
		if *gp.Holds != *wp.Holds {
			t.Fatalf("seed %d step %d q%d: session possible=%v, rebuild %v", seed, step, qi, *gp.Holds, *wp.Holds)
		}
	}
}

func TestMutationMatchesRebuild(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		s := NewSolver(WithWorkers(workers))
		for seed := int64(0); seed < 36; seed++ {
			// A fresh solver per rebuild so the reference never shares the
			// live session's result cache (clones share fingerprints).
			fresh := NewSolver(WithWorkers(workers), WithCacheSize(-1))
			r := rand.New(rand.NewSource(seed))
			p, err := s.Prepare(seedDB(int(seed % 3)))
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; step++ {
				for n := 1 + r.Intn(3); n > 0; n-- {
					mutateSession(t, r, p)
				}
				checkAgainstRebuild(t, ctx, p, fresh, seed, step)
			}
		}
		m := s.Metrics()
		if m.Mutations == 0 {
			t.Fatalf("workers=%d: no mutations recorded", workers)
		}
		if m.PlansInvalidated == 0 {
			t.Fatalf("workers=%d: no cached plan was invalidated", workers)
		}
	}
}

// FuzzMutationMatchesRebuild drives the same property from fuzz-provided
// operation bytes: each byte selects and parameterizes one mutation.
func FuzzMutationMatchesRebuild(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x17, 0x90}, int64(1))
	f.Add([]byte{0xff, 0x00, 0x33}, int64(2))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		ctx := context.Background()
		s := NewSolver(WithWorkers(2))
		shape := int(uint64(seed) % 3)
		p, err := s.Prepare(seedDB(shape))
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			r := rand.New(rand.NewSource(seed*1009 + int64(op)))
			mutateSession(t, r, p)
			if i%6 == 5 || i == len(ops)-1 {
				fresh := NewSolver(WithWorkers(2), WithCacheSize(-1))
				checkAgainstRebuild(t, ctx, p, fresh, seed, i)
			}
		}
	})
}

// TestFactorMemoReuse pins the incremental-recount contract on a
// factorized database: after a delta touching one independent component,
// a recount re-sweeps only that component and serves the others from the
// factor memo, reported through Result.Stats.FactorsReused.
func TestFactorMemoReuse(t *testing.T) {
	ctx := context.Background()
	db := core.NewDatabase()
	for n := core.NullID(1); n <= 6; n++ {
		if err := db.SetDomain(n, []string{"a", "b", "c"}); err != nil {
			t.Fatal(err)
		}
	}
	// Three independent components: disjoint relations, disjoint nulls.
	db.MustAddFact("A", core.Null(1), core.Null(2))
	db.MustAddFact("A", core.Null(2), core.Const("a"))
	db.MustAddFact("B", core.Null(3), core.Null(4))
	db.MustAddFact("B", core.Const("b"), core.Null(4))
	db.MustAddFact("C", core.Null(5), core.Null(6))

	s := NewSolver()
	p, err := s.Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("A(x, x) ∧ B(y, y) ∧ C(z, z)")

	first, err := p.Count(ctx, q, classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.FactorsReused != 0 {
		t.Fatalf("first count reused %d factors; want 0", first.Stats.FactorsReused)
	}

	// Touch only component A: a constant fact keeps the space unchanged
	// but changes A's satisfying set.
	if err := p.AddFact("A", core.Const("a"), core.Const("a")); err != nil {
		t.Fatal(err)
	}
	second, err := p.Count(ctx, q, classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CacheHit {
		t.Fatal("recount after a delta must not be served from the result cache")
	}
	if second.Stats.FactorsReused < 2 {
		t.Fatalf("recount reused %d factors; want at least the two untouched components", second.Stats.FactorsReused)
	}
	if second.Stats.Epoch <= first.Stats.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", first.Stats.Epoch, second.Stats.Epoch)
	}

	// The reused-factor result must equal a from-scratch rebuild.
	ref, err := NewSolver().Prepare(db.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Count(ctx, q, classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if second.Count.Cmp(want.Count) != 0 {
		t.Fatalf("incremental recount %v, rebuild %v", second.Count, want.Count)
	}
	if s.Metrics().FactorsReused == 0 {
		t.Fatal("solver metrics did not record factor reuse")
	}
}

// TestPlansAreValues: a plan a session handed out never changes. A write
// leaves it byte-identical, even a write to a null its sweep enumerates,
// and the next Explain builds a new plan at the new version; a render
// racing a stream of writes reads nothing they write.
func TestPlansAreValues(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParseBCQ("R(x, x)")
	// ?4 is held only by S, which R(x, x) does not mention.
	prepare := func(t *testing.T) *PreparedDB {
		t.Helper()
		db := core.NewDatabase()
		for n := core.NullID(1); n <= 4; n++ {
			if err := db.SetDomain(n, []string{"a", "b", "c"}); err != nil {
				t.Fatal(err)
			}
		}
		db.MustAddFact("R", core.Null(1), core.Null(2))
		db.MustAddFact("R", core.Null(2), core.Null(3))
		db.MustAddFact("S", core.Null(4))
		p, err := NewSolver().Prepare(db)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	render := func(t *testing.T, pl *plan.Plan) string {
		b, err := json.Marshal(pl.JSON())
		if err != nil {
			t.Error(err)
		}
		return string(b) + "\n" + pl.Render()
	}
	// #Val of R(x, x) is planned as cylinder inclusion–exclusion, #Comp as
	// a sweep that enumerates ?4.
	for _, kind := range []classify.CountingKind{classify.Valuations, classify.Completions} {
		t.Run(kind.String(), func(t *testing.T) {
			t.Run("render", func(t *testing.T) {
				p := prepare(t)
				res, err := p.Count(ctx, q, kind)
				if err != nil {
					t.Fatal(err)
				}
				before := render(t, res.Plan)
				if err := p.ExtendDomain(4, "d"); err != nil {
					t.Fatal(err)
				}
				if after := render(t, res.Plan); after != before {
					t.Fatalf("a write changed a returned plan:\nbefore %s\nafter  %s", before, after)
				}
				next, err := p.Explain(q, kind)
				if err != nil {
					t.Fatal(err)
				}
				if next == res.Plan {
					t.Fatal("Explain after a write returned the plan built before it")
				}
				if kind != classify.Completions {
					return
				}
				if n := sweepNodes(next); len(n) != 1 || n[0].Cost.Space.Int64() != 3*3*3*4 {
					t.Fatalf("rebuilt #Comp plan %s: want one sweep of 108 valuations", next.Render())
				}
			})
			t.Run("race", func(t *testing.T) {
				p := prepare(t)
				res, err := p.Count(ctx, q, kind)
				if err != nil {
					t.Fatal(err)
				}
				before := render(t, res.Plan)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; i < 64; i++ {
						if err := p.ExtendDomain(4, fmt.Sprintf("v%d", i)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
				for writing := true; writing; {
					select {
					case <-done:
						writing = false
					default:
					}
					if got := render(t, res.Plan); got != before {
						<-done
						t.Fatalf("a concurrent write changed a returned plan:\nbefore %s\nafter  %s", before, got)
					}
				}
			})
		})
	}
}
