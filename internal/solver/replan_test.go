package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// Tests of replanning after a write: the planner takes each part of a
// factorization that the write left untouched — its description and its
// count — from the session's factor memo, and the plan it returns is
// byte-identical to one built from scratch.

// componentsDB is the database of BenchmarkIncrementalRecount: one
// relation Ci per component, over its own cycle of sizes[i] nulls with
// domains {a, b, c}.
func componentsDB(sizes []int) *core.Database {
	db := core.NewDatabase()
	next := core.NullID(1)
	for c, k := range sizes {
		rel := fmt.Sprintf("C%d", c)
		for i := 0; i < k; i++ {
			if err := db.SetDomain(next+core.NullID(i), []string{"a", "b", "c"}); err != nil {
				panic(err)
			}
		}
		for i := 0; i < k; i++ {
			db.MustAddFact(rel, core.Null(next+core.NullID(i)), core.Null(next+core.NullID((i+1)%k)))
		}
		next += core.NullID(k)
	}
	return db
}

// componentsQuery is C0(x0, x0) ∧ … ∧ C{n−1}(x{n−1}, x{n−1}).
func componentsQuery(n int) cq.Query {
	q := ""
	for c := 0; c < n; c++ {
		if c > 0 {
			q += " ∧ "
		}
		q += fmt.Sprintf("C%d(x%d, x%d)", c, c, c)
	}
	return cq.MustParse(q)
}

// renderBoth is a plan's JSON followed by its rendered text.
func renderBoth(t *testing.T, pl *plan.Plan) string {
	t.Helper()
	b, err := json.Marshal(pl.JSON())
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n" + pl.Render()
}

// holdsPayload reports whether a node of n's subtree holds a cylinder set
// or an engine.
func holdsPayload(n *plan.Node) bool {
	if n.Cylinders != nil || n.Engine != nil {
		return true
	}
	for _, c := range n.Children {
		if holdsPayload(c) {
			return true
		}
	}
	return false
}

// TestReplanPlansOnlyTheWrittenComponent pins the saved work: after a
// write to one of 12 components, the next Explain holds a payload for
// that component only, takes the other 11 from the memo, and renders
// exactly as a plan built from scratch.
func TestReplanPlansOnlyTheWrittenComponent(t *testing.T) {
	ctx := context.Background()
	sizes := []int{4, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
	q := componentsQuery(len(sizes))
	p, err := NewSolver().Prepare(componentsDB(sizes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Count(ctx, q, classify.Valuations); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		g := core.Const(fmt.Sprintf("g%d", i))
		if err := p.AddFact("C0", g, g); err != nil {
			t.Fatal(err)
		}
		pl, err := p.Explain(q, classify.Valuations)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Root.Op != plan.OpFactor || len(pl.Root.Children) != len(sizes) {
			t.Fatalf("write %d: plan %s, want a factorization into %d parts", i, pl.Method(), len(sizes))
		}
		for c, ch := range pl.Root.Children {
			written := c == 0
			if got := holdsPayload(ch); got != written {
				t.Errorf("write %d: part %v holds a payload: %v, want %v", i, ch.Query, got, written)
			}
			if got := ch.Reused != nil; got == written {
				t.Errorf("write %d: part %v reused: %v, want %v", i, ch.Query, got, !written)
			}
		}
		want, err := plan.Build(p.Database().Clone(), q, classify.Valuations, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderBoth(t, pl), renderBoth(t, want); got != want {
			t.Fatalf("write %d: replanned\n%s\nfrom scratch\n%s", i, got, want)
		}
		res, err := p.Count(ctx, q, classify.Valuations)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != pl || res.Stats.FactorsReused != len(sizes)-1 {
			t.Fatalf("write %d: count ran the explained plan: %v, reused %d factors; want true, %d",
				i, res.Plan == pl, res.Stats.FactorsReused, len(sizes)-1)
		}
	}
	// A memo entry is a fraction and a bare description: no payload, no
	// key, no count, no database.
	for el := p.factors.ll.Front(); el != nil; el = el.Next() {
		d := el.Value.(*lruEntry[factorEntry]).val.desc
		if d == nil || holdsPayload(d) || d.MemoKey != "" || d.Reused != nil {
			t.Fatalf("memo entry description %+v: want a bare description", d)
		}
	}
}

// TestConcurrentReplans: readers that explain and count a factorized
// query while a writer changes one part share the memo's descriptions
// across plans and goroutines (run under -race in CI), and the session
// ends where a fresh one starts.
func TestConcurrentReplans(t *testing.T) {
	ctx := context.Background()
	sizes := []int{4, 5, 5, 5}
	p, err := NewSolver(WithCacheSize(-1), WithWorkers(1)).Prepare(componentsDB(sizes))
	if err != nil {
		t.Fatal(err)
	}
	queries := []cq.Query{componentsQuery(len(sizes)), cq.MustParse("C1(y, y) ∧ C0(x, x) ∧ C3(z, z)")}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := p.Explain(q, classify.Valuations); err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Count(ctx, q, classify.Valuations); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 16; i++ {
		g := core.Const(fmt.Sprintf("g%d", i%3))
		if i%2 == 0 {
			if err := p.AddFact("C0", g, g); err != nil {
				t.Fatal(err)
			}
		} else {
			p.RemoveFact("C0", g, g)
		}
	}
	wg.Wait()
	ref, err := NewSolver(WithCacheSize(-1)).Prepare(p.Database().Clone())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, err := p.Count(ctx, q, classify.Valuations)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Count(ctx, q, classify.Valuations)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count.Cmp(want.Count) != 0 {
			t.Fatalf("%v: session %v, fresh %v", q, got.Count, want.Count)
		}
	}
}

// TestFactorMemoReuseAfterExplain is TestFactorMemoReuse in the order
// the service and the benchmark use: Explain, then Count, which runs the
// plan Explain built. Reuse is decided when the plan is built, so the
// counts of reused factors are exactly those of Count alone.
func TestFactorMemoReuseAfterExplain(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(WithCacheSize(-1))
	recount := func(t *testing.T, p *PreparedDB, q cq.Query, step string, wantReused int) {
		t.Helper()
		pl, err := p.Explain(q, classify.Valuations)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		res, err := p.Count(ctx, q, classify.Valuations)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if res.Plan != pl {
			t.Fatalf("%s: the count did not run the explained plan", step)
		}
		if res.Stats.FactorsReused != wantReused {
			t.Fatalf("%s: recount reused %d factors, want %d (method %s)", step, res.Stats.FactorsReused, wantReused, res.Method)
		}
		clone := p.Database().Clone()
		fresh, err := plan.Build(clone, q, classify.Valuations, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderBoth(t, pl), renderBoth(t, fresh); got != want {
			t.Fatalf("%s: explained\n%s\nfrom scratch\n%s", step, got, want)
		}
		ref, err := NewSolver(WithCacheSize(-1)).Prepare(clone)
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
	}

	db := core.NewDatabase()
	for n := core.NullID(1); n <= 6; n++ {
		if err := db.SetDomain(n, []string{"a", "b", "c"}); err != nil {
			t.Fatal(err)
		}
	}
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
	recount(t, p, q, "first count", 0)
	if err := p.AddFact("A", core.Const("a"), core.Const("a")); err != nil {
		t.Fatal(err)
	}
	recount(t, p, q, "after AddFact on A", 2)
	p.RemoveFact("A", core.Const("a"), core.Const("a"))
	recount(t, p, q, "after AddFact then RemoveFact on A", 3)
	if err := p.ExtendDomain(3, "d"); err != nil {
		t.Fatal(err)
	}
	recount(t, p, q, "after ExtendDomain on a null of B", 2)
	db.MustAddFact("C", core.Const("c"), core.Null(5))
	recount(t, p, q, "after a direct write to C", 2)

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
	if err := p.AddFact("E", core.Null(7)); err != nil {
		t.Fatal(err)
	}
	recount(t, p, q, "after a write that makes the table non-Codd", 0)

	// A part whose variables are renamed in the query is other content.
	// (The write to a relation no part reads empties the plan cache,
	// which would otherwise serve the isomorphic query's plan.)
	if err := p.AddFact("F", core.Const("a")); err != nil {
		t.Fatal(err)
	}
	renamed := cq.MustParse("A(x, y) ∧ A(y, x) ∧ B(z, z) ∧ C(v, v)")
	recount(t, p, renamed, "after renaming the variable of C", 2)
}

// TestSweptValuationsSkipReusedFactors: a part whose count the plan took
// from the memo sweeps nothing, so the stats of a recount after a write
// to R describe R's sweep only.
func TestSweptValuationsSkipReusedFactors(t *testing.T) {
	ctx := context.Background()
	const k = 19 // 19 cylinders each: past the cap, so both parts sweep
	db := core.NewDatabase()
	for n := core.NullID(1); n <= 2*k; n++ {
		if err := db.SetDomain(n, []string{"0", "1"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%k)))
		db.MustAddFact("S", core.Null(core.NullID(k+1+i)), core.Null(core.NullID(k+1+(i+1)%k)))
	}
	p, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("R(x, x) ∧ S(y, y)")
	if _, err := p.Count(ctx, q, classify.Valuations); err != nil {
		t.Fatal(err)
	}
	if err := p.AddFact("R", core.Const("0"), core.Const("1")); err != nil {
		t.Fatal(err)
	}
	res, err := p.Count(ctx, q, classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	half := new(big.Int).Lsh(big.NewInt(1), k)
	st := res.Stats
	if st.FactorsReused != 1 || st.SweptValuations == nil || st.SweptValuations.Cmp(half) != 0 ||
		st.PrunedNulls != k || st.PruneMultiplier == nil || st.PruneMultiplier.Cmp(half) != 0 {
		t.Fatalf("after a write to R: reused %d, swept %v, pruned %d nulls (multiplier %v); want 1, %v, %d (%v)",
			st.FactorsReused, st.SweptValuations, st.PrunedNulls, st.PruneMultiplier, half, k, half)
	}
}

// TestFactorKeyNamesThePartAsWritten: the memo key encodes a part as
// written, injectively: renamed variables, reordered atoms, a split
// argument list or an added inequality make another key.
func TestFactorKeyNamesThePartAsWritten(t *testing.T) {
	db := core.NewDatabase()
	if err := db.SetDomain(1, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	db.MustAddFact("A", core.Null(1), core.Const("a"))
	db.MustAddFact("B", core.Const("b"))
	p, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	r := &factorRecorder{p: p}
	atom := func(rel string, vars ...string) cq.Atom { return cq.Atom{Rel: rel, Vars: vars} }
	base := &cq.BCQ{Atoms: []cq.Atom{atom("A", "x", "y"), atom("B", "y")}}
	parts := []cq.Query{
		base,
		&cq.BCQ{Atoms: []cq.Atom{atom("A", "x", "z"), atom("B", "z")}},
		&cq.BCQ{Atoms: []cq.Atom{atom("B", "y"), atom("A", "x", "y")}},
		&cq.BCQ{Atoms: []cq.Atom{atom("A", "xy"), atom("B", "y")}},
		&cq.UCQ{Disjuncts: []*cq.BCQ{base}},
		&cq.BCQNeq{Base: base, Diffs: [][2]string{{"x", "y"}}},
		&cq.BCQNeq{Base: base, Diffs: [][2]string{{"y", "x"}}},
	}
	seen := make(map[string]int)
	for i, q := range parts {
		key, ok := r.factorKey(q)
		if !ok {
			t.Fatalf("part %d (%v) is not memoizable", i, q)
		}
		if j, dup := seen[key]; dup {
			t.Fatalf("parts %d (%v) and %d (%v) share a key", j, parts[j], i, q)
		}
		seen[key] = i
	}
	again, _ := r.factorKey(&cq.BCQ{Atoms: []cq.Atom{atom("A", "x", "y"), atom("B", "y")}})
	if j, ok := seen[again]; !ok || j != 0 {
		t.Fatal("the same part written again got another key")
	}
	if _, ok := r.factorKey(&cq.Negation{Inner: base}); ok {
		t.Fatal("a negation is memoizable")
	}
}

// explainQueries are the factorizable queries of
// FuzzExplainMatchesRebuild over seedDB plus explainChain:
//   - a BCQ whose W chain has 27 cylinders, past the cap of
//     inclusion–exclusion, so that part sweeps, beside S(v) (Theorem 3.6)
//     and T(u, u) (Theorem 3.7 on a Codd table);
//   - a self-join, which keeps the whole query off Theorems 3.6–3.9, so
//     it factors into parts that route by those theorems;
//   - a union of disjunct groups over disjoint nulls.
var explainQueries = []cq.Query{
	cq.MustParse("W(x, y) ∧ W(y, z) ∧ W(z, w) ∧ S(v) ∧ T(u, u)"),
	cq.MustParse("R(x, y) ∧ R(y, x) ∧ S(z) ∧ T(u, u)"),
	cq.MustParse("S(x) ∨ T(y, y) ∨ R(z, z) ∨ W(u, u)"),
}

// explainChain adds three W facts over six fresh nulls (domains {a, b}
// on a non-uniform table), each held once, so the table keeps its shape.
func explainChain(db *core.Database) {
	for n := core.NullID(4); n <= 9; n += 2 {
		if !db.Uniform() {
			for _, m := range []core.NullID{n, n + 1} {
				if err := db.SetDomain(m, []string{"a", "b"}); err != nil {
					panic(err)
				}
			}
		}
		db.MustAddFact("W", core.Null(n), core.Null(n+1))
	}
}

// FuzzExplainMatchesRebuild applies random writes (mutateSession) to
// the three seedDB shapes and, after each, asks every explainQueries
// query for a plan and a count, in either order. The session's Explain
// must render and serialize byte for byte like plan.Build on a clone of
// the database, and its count must equal a fresh session's: a part taken
// from the factor memo describes exactly what planning it would.
func FuzzExplainMatchesRebuild(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x17, 0x90, 0x05, 0x33}, int64(0))
	f.Add([]byte{0xff, 0x00, 0x33, 0x21, 0x64, 0x12}, int64(1))
	f.Add([]byte{0x10, 0x81, 0x07, 0x3c, 0x55, 0x02}, int64(2))
	f.Add([]byte{0x04, 0x09, 0x0b, 0x2a, 0x61, 0x7e}, int64(4))
	f.Add([]byte{0x03, 0x1f, 0x44, 0x58, 0x92, 0xa0}, int64(7))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		ctx := context.Background()
		db := seedDB(int(uint64(seed) % 3))
		explainChain(db)
		p, err := NewSolver(WithWorkers(1)).Prepare(db)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			mutateSession(t, rand.New(rand.NewSource(seed*1009+int64(op))), p)
			clone := p.Database().Clone()
			ref, err := NewSolver(WithWorkers(1), WithCacheSize(-1)).Prepare(clone)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range explainQueries {
				var pl *plan.Plan
				var res *Result
				if op&1 == 0 {
					pl, err = p.Explain(q, classify.Valuations)
					if err == nil {
						res, err = p.Count(ctx, q, classify.Valuations)
					}
				} else {
					res, err = p.Count(ctx, q, classify.Valuations)
					if err == nil {
						pl, err = p.Explain(q, classify.Valuations)
					}
				}
				if err != nil {
					t.Fatalf("seed %d op %d q%d: %v", seed, i, qi, err)
				}
				want, err := plan.Build(clone, q, classify.Valuations, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renderBoth(t, pl), renderBoth(t, want); got != want {
					t.Fatalf("seed %d op %d q%d over\n%s\nsession plan\n%s\nfrom scratch\n%s", seed, i, qi, clone, got, want)
				}
				fresh, err := ref.Count(ctx, q, classify.Valuations)
				if err != nil {
					t.Fatal(err)
				}
				if res.Count.Cmp(fresh.Count) != 0 {
					t.Fatalf("seed %d op %d q%d: session %v (method %s, reused %d), fresh %v",
						seed, i, qi, res.Count, res.Method, res.Stats.FactorsReused, fresh.Count)
				}
			}
		}
	})
}
