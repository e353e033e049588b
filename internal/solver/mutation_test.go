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
// write path — plan-cache purges, content-keyed factor-memo reuse
// across Codd flips and direct database writes — against the rebuild
// baseline.

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
// factorized database: a recount re-sweeps only the components whose
// facts or domains changed and serves the others from the factor memo,
// reported through Result.Stats.FactorsReused. The result cache is
// disabled, so every count below runs its plan, and each one must equal
// a count on a session prepared from scratch.
func TestFactorMemoReuse(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(WithCacheSize(-1))
	recount := func(t *testing.T, p *PreparedDB, q cq.Query, step string, wantReused int) *Result {
		t.Helper()
		res, err := p.Count(ctx, q, classify.Valuations)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if res.Stats.CacheHit {
			t.Fatalf("%s: served from the result cache", step)
		}
		if res.Stats.FactorsReused != wantReused {
			t.Fatalf("%s: recount reused %d factors, want %d (method %s)", step, res.Stats.FactorsReused, wantReused, res.Method)
		}
		ref, err := NewSolver(WithCacheSize(-1)).Prepare(p.Database().Clone())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Count(ctx, q, classify.Valuations)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count.Cmp(want.Count) != 0 {
			t.Fatalf("%s: incremental recount %v, rebuild %v", step, res.Count, want.Count)
		}
		return res
	}

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
	p, err := s.Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("A(x, x) ∧ B(y, y) ∧ C(z, z)")

	first := recount(t, p, q, "first count", 0)
	// Touch only component A: a constant fact keeps the space unchanged
	// but changes A's satisfying set.
	if err := p.AddFact("A", core.Const("a"), core.Const("a")); err != nil {
		t.Fatal(err)
	}
	second := recount(t, p, q, "after AddFact on A", 2)
	if second.Stats.Epoch <= first.Stats.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", first.Stats.Epoch, second.Stats.Epoch)
	}
	// Undoing the write restores A's content, and with it A's entry.
	p.RemoveFact("A", core.Const("a"), core.Const("a"))
	recount(t, p, q, "after AddFact then RemoveFact on A", 3)
	// A domain extension on a null only B holds changes only B.
	if err := p.ExtendDomain(3, "d"); err != nil {
		t.Fatal(err)
	}
	recount(t, p, q, "after ExtendDomain on a null of B", 2)
	// A write straight to the database, past the session's methods.
	db.MustAddFact("C", core.Const("c"), core.Null(5))
	recount(t, p, q, "after a direct write to C", 2)
	if s.Metrics().FactorsReused == 0 {
		t.Fatal("solver metrics did not record factor reuse")
	}

	// On a Codd table the single-atom components route by Theorem 3.7;
	// the self-join keeps the whole query off that route, so it factors.
	codd := core.NewDatabase()
	for n := core.NullID(1); n <= 7; n++ {
		if err := codd.SetDomain(n, []string{"a", "b", "c"}); err != nil {
			t.Fatal(err)
		}
	}
	codd.MustAddFact("A", core.Null(1), core.Null(2))
	codd.MustAddFact("A", core.Const("c"), core.Const("a"))
	codd.MustAddFact("B", core.Null(3), core.Null(4))
	codd.MustAddFact("C", core.Null(5), core.Null(6))
	p, err = s.Prepare(codd)
	if err != nil {
		t.Fatal(err)
	}
	q = cq.MustParse("A(x, y) ∧ A(y, x) ∧ B(z, z) ∧ C(w, w)")
	recount(t, p, q, "first count on the Codd table", 0)
	if err := p.AddFact("D", core.Null(7)); err != nil {
		t.Fatal(err)
	}
	recount(t, p, q, "after a write that keeps the table Codd", 3)
	// A second occurrence of ?7 flips the table to non-Codd, which
	// reroutes every component: no entry made on the Codd table may answer.
	if err := p.AddFact("E", core.Null(7)); err != nil {
		t.Fatal(err)
	}
	if p.Database().IsCodd() {
		t.Fatal("the table is still Codd")
	}
	recount(t, p, q, "after a write that makes the table non-Codd", 0)
}

// TestFactorMemoIsBounded: a read-only session answering endless distinct
// factorized queries keeps at most factorMemoSize fractions.
func TestFactorMemoIsBounded(t *testing.T) {
	ctx := context.Background()
	const queries = factorMemoSize + 1
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("Anchor", core.Null(1), core.Null(2))
	for i := 0; i < queries; i++ {
		db.MustAddFact(fmt.Sprintf("R%d", i), core.Null(3), core.Const("a"))
	}
	p, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queries; i++ {
		q := cq.MustParse(fmt.Sprintf("Anchor(x, x) ∧ R%d(y, y)", i))
		res, err := p.Count(ctx, q, classify.Valuations)
		if err != nil {
			t.Fatal(err)
		}
		// Half the valuations satisfy each component: 2 of 4 and 1 of 2.
		if res.Count.Int64() != 2 || (i > 0 && res.Stats.FactorsReused != 1) {
			t.Fatalf("query %d: count %v, %d factors reused, method %s; want 2, the anchor reused",
				i, res.Count, res.Stats.FactorsReused, res.Method)
		}
	}
	if n := p.factors.len(); n > factorMemoSize {
		t.Fatalf("%d distinct factorized queries left %d memo entries, want at most %d", queries, n, factorMemoSize)
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
