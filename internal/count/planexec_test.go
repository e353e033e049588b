package count

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/cylinder"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// The pre-refactor dispatcher, replicated verbatim as a reference: the
// planner-driven CountValuations/CountCompletions must stay bit-identical
// to this if-ladder on every input (the factorization rewrite may choose
// a different route, but every route is exact).

func legacyCountValuations(db *core.Database, q cq.Query, opts *Options) (*big.Int, error) {
	if neg, ok := q.(*cq.Negation); ok {
		inner, err := legacyCountValuations(db, neg.Inner, opts)
		if err != nil {
			return nil, err
		}
		total, err := db.NumValuations()
		if err != nil {
			return nil, err
		}
		return total.Sub(total, inner), nil
	}
	if b, ok := q.(*cq.BCQ); ok && b.SelfJoinFree() && b.Validate() == nil {
		if cq.AllVariablesOccurOnce(b) {
			return ValuationsSingleOccurrence(db, b)
		}
		if db.IsCodd() && !cq.HasSharedVarAtoms(b) {
			return ValuationsCodd(db, b)
		}
		if db.Uniform() && !cq.HasRepeatedVarAtom(b) && !cq.HasPathPattern(b) && !cq.HasDoublySharedPair(b) {
			return ValuationsUniform(db, b)
		}
	}
	switch q.(type) {
	case *cq.BCQ, *cq.UCQ:
		if set, err := cylinder.Build(db, q); err == nil && len(set.Cylinders) <= 18 {
			if n, err := set.UnionCountParallel(context.Background(), 1); err == nil {
				return n, nil
			}
		}
	}
	return BruteForceValuations(db, q, opts)
}

func legacyCountCompletions(db *core.Database, q cq.Query, opts *Options) (*big.Int, error) {
	if b, ok := q.(*cq.BCQ); ok && b.SelfJoinFree() && b.Validate() == nil {
		if db.Uniform() && cq.AllAtomsUnary(b) && allRelationsUnaryTest(db) {
			return CompletionsUniform(db, b)
		}
	}
	return BruteForceCompletions(db, q, opts)
}

func allRelationsUnaryTest(db *core.Database) bool {
	for _, r := range db.Relations() {
		if db.Arity(r) != 1 {
			return false
		}
	}
	return true
}

// TestPlanExecuteMatchesLegacyDispatcher is the refactor's bit-identity
// property: across naïve/Codd/uniform databases, BCQ/UCQ/negation/
// inequality queries, and 1/4 workers, the planner-driven counters return
// exactly what the pre-refactor dispatcher returned.
func TestPlanExecuteMatchesLegacyDispatcher(t *testing.T) {
	queries := []string{
		"R(x) ∧ S(y)",       // Theorem 3.6 territory
		"R(x) ∧ S(x)",       // shared variable
		"R(x, x)",           // hard pattern
		"R(x, x) ∧ S(y, y)", // factorizable when the null sets are disjoint
		"R(x, y) ∧ S(y)",
		"R(x, x) | S(y, y)", // union, factorizable per group
		"R(x, y) | R(y, x)",
		"!R(x, x)", // negation: complement node
		"!(R(x, x) ∧ S(y, y))",
		"R(x, y) ∧ x ≠ y", // inequality: outside the planner's rewrites
	}
	schema := map[string]int{"R": 2, "S": 2}
	type dbCase struct {
		name string
		mk   func(r *rand.Rand) *core.Database
	}
	cases := []dbCase{
		{"naive", func(r *rand.Rand) *core.Database { return randomNaiveDB(r, schema, 3, 4, 3) }},
		{"codd", func(r *rand.Rand) *core.Database { return randomCoddDB(r, schema, 3, 3) }},
		{"uniform", func(r *rand.Rand) *core.Database { return randomUniformDB(r, schema, 3, 4, 3) }},
	}
	for _, c := range cases {
		for seed := int64(0); seed < 10; seed++ {
			r := rand.New(rand.NewSource(seed))
			db := c.mk(r)
			for _, qs := range queries {
				q, err := cq.Parse(qs)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					opts := &Options{Workers: workers}
					label := fmt.Sprintf("%s seed=%d q=%s workers=%d", c.name, seed, qs, workers)

					wantV, err := legacyCountValuations(db, q, opts)
					if err != nil {
						t.Fatalf("%s: legacy val: %v", label, err)
					}
					gotV, _, err := CountValuations(db, q, opts)
					if err != nil {
						t.Fatalf("%s: planned val: %v", label, err)
					}
					mustEqual(t, gotV, wantV, label+" valuations")

					wantC, err := legacyCountCompletions(db, q, opts)
					if err != nil {
						t.Fatalf("%s: legacy comp: %v", label, err)
					}
					gotC, _, err := CountCompletions(db, q, opts)
					if err != nil {
						t.Fatalf("%s: planned comp: %v", label, err)
					}
					mustEqual(t, gotC, wantC, label+" completions")
				}
			}
		}
	}
}

// TestFactorizationBeatsGuard: a variable- and null-disjoint conjunction
// whose joint sweep exceeds the guard counts exactly through the
// factorization node — the swept spaces add instead of multiplying.
func TestFactorizationBeatsGuard(t *testing.T) {
	db := core.NewUniformDatabase([]string{"0", "1"})
	// Two 19-null cycles: R over ⊥1..⊥19, S over ⊥21..⊥39. Each
	// component's 19 cylinders are one past the cap of inclusion–exclusion,
	// so both components sweep.
	for i := 0; i < 19; i++ {
		db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%19)))
		db.MustAddFact("S", core.Null(core.NullID(21+i)), core.Null(core.NullID(21+(i+1)%19)))
	}
	q := cq.MustParseBCQ("R(x, x) ∧ S(y, y)")
	// Guard of 2^20: the joint space 2^38 trips it, each component's 2^19
	// (2^20 for the even cycles below) does not.
	opts := &Options{MaxValuations: 1 << 20}

	if _, err := BruteForceValuations(db, q, opts); err == nil {
		t.Fatal("joint sweep unexpectedly fit the guard; the test instance is too small")
	}

	n, m, err := CountValuations(db, q, opts)
	if err != nil {
		t.Fatalf("factorized count failed: %v", err)
	}
	if m != Method("factor(brute-force × brute-force)") {
		t.Fatalf("method %q", m)
	}
	// An odd cycle of 19 nulls has no proper 2-coloring, so every
	// assignment puts some equal adjacent pair on the cycle and satisfies
	// R(x, x); with both components always satisfied, #Val is the whole
	// space.
	total, _ := db.NumValuations()
	if n.Cmp(total) != 0 {
		t.Fatalf("odd-cycle count %v, want the full space %v", n, total)
	}

	// An even cycle leaves exactly the two alternating assignments
	// unsatisfied per component, making the count non-trivial.
	db2 := core.NewUniformDatabase([]string{"0", "1"})
	for i := 0; i < 20; i++ {
		db2.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%20)))
		db2.MustAddFact("S", core.Null(core.NullID(21+i)), core.Null(core.NullID(21+(i+1)%20)))
	}
	n2, m2, err := CountValuations(db2, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != Method("factor(brute-force × brute-force)") {
		t.Fatalf("method %q", m2)
	}
	per := big.NewInt(1<<20 - 2)
	want := new(big.Int).Mul(per, per)
	mustEqual(t, n2, want, "even-cycle factorized count")
}

// TestFactorizationUnionExact: the complement-product identity of the
// union factorization agrees with a brute-force sweep.
func TestFactorizationUnionExact(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := core.NewUniformDatabase([]string{"a", "b"})
		// R over ⊥1..⊥4, S over ⊥11..⊥14: disjoint by construction.
		for i := 0; i < 3; i++ {
			db.MustAddFact("R", core.Null(core.NullID(1+r.Intn(4))), core.Null(core.NullID(1+r.Intn(4))))
			db.MustAddFact("S", core.Null(core.NullID(11+r.Intn(4))), core.Null(core.NullID(11+r.Intn(4))))
		}
		q := cq.MustParse("R(x, x) | S(y, y)")
		p, err := Explain(db, q, classify.Valuations, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Root.Op != plan.OpFactorUnion {
			t.Fatalf("seed %d: union did not factor: %s", seed, p.Render())
		}
		got, _, err := ExecutePlan(db, p, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForceValuations(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, got, want, fmt.Sprintf("union factorization seed %d", seed))
	}
}

// TestExecutePlanRejectsForeignDatabase: a plan's payloads embed the
// database it was compiled from, so executing it against another
// database must fail instead of silently mixing the two.
func TestExecutePlanRejectsForeignDatabase(t *testing.T) {
	db1 := core.NewUniformDatabase([]string{"a", "b"})
	db1.MustAddFact("R", core.Null(1), core.Null(1))
	db2 := core.NewUniformDatabase([]string{"a", "b", "c"})
	db2.MustAddFact("R", core.Null(1), core.Null(1))
	p, err := Explain(db1, cq.MustParseBCQ("R(x, x)"), classify.Valuations, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExecutePlan(db2, p, nil, nil, nil); err == nil {
		t.Fatal("foreign database accepted")
	}
	if n, _, err := ExecutePlan(db1, p, nil, nil, nil); err != nil || n.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("own database: %v, err %v", n, err)
	}
}

// TestStrippedPlanDoesNotExecute: a plan without its payloads renders
// but does not execute. Its cylinder and sweep nodes are refused with an
// error that carries the node's cost note, instead of being rebuilt from
// the database.
func TestStrippedPlanDoesNotExecute(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("R", core.Null(2), core.Null(1))
	for _, c := range []struct {
		q  string
		op plan.Op
	}{{"R(x, x)", plan.OpCylinderIE}, {"R(x, y) ∧ x ≠ y", plan.OpSweep}} {
		p, err := Explain(db, cq.MustParse(c.q), classify.Valuations, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Root.Op != c.op {
			t.Fatalf("%s: op %q, want %q", c.q, p.Root.Op, c.op)
		}
		_, _, err = ExecutePlan(db, p.StripPayloads(), nil, nil, nil)
		if err == nil || !strings.Contains(err.Error(), p.Root.Cost.Note) {
			t.Errorf("%s: stripped plan executed (err %v), want an error carrying %q", c.q, err, p.Root.Cost.Note)
		}
	}
}

// TestMultiSweepProgressMonotone: a factorized plan running several
// sweeps reports one normalized, forward-only progress stream — the
// contract the job API's progress display depends on.
func TestMultiSweepProgressMonotone(t *testing.T) {
	db := core.NewUniformDatabase([]string{"0", "1"})
	// Two 19-null cycles: 19 cylinders each, past the cap of
	// inclusion–exclusion, so each component sweeps.
	for i := 0; i < 19; i++ {
		db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%19)))
		db.MustAddFact("S", core.Null(core.NullID(21+i)), core.Null(core.NullID(21+(i+1)%19)))
	}
	q := cq.MustParseBCQ("R(x, x) ∧ S(y, y)")
	type tick struct{ done, total int }
	var ticks []tick
	opts := &Options{
		Workers:  2, // explicit: forces sharding even on small spaces
		Progress: func(done, total int) { ticks = append(ticks, tick{done, total}) },
	}
	p, err := Explain(db, q, classify.Valuations, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepNodes(p.Root); got != 2 {
		t.Fatalf("sweep nodes %d, want 2: %s", got, p.Render())
	}
	_, rec, err := ExecutePlan(db, p, opts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each sweep enumerates its own cycle and factors the other's 19
	// nulls out.
	half := new(big.Int).Lsh(big.NewInt(1), 19)
	if want := new(big.Int).Lsh(half, 1); rec.SweptValuations == nil || rec.SweptValuations.Cmp(want) != 0 ||
		rec.PrunedNulls != 38 || rec.PruneMultiplier == nil || rec.PruneMultiplier.Cmp(new(big.Int).Mul(half, half)) != 0 {
		t.Fatalf("record %+v: want %v swept, 38 nulls pruned, multiplier 2^38", rec, want)
	}
	if len(ticks) == 0 {
		t.Fatal("no progress reported")
	}
	last := -1
	for i, tk := range ticks {
		if tk.total != progressUnits {
			t.Fatalf("tick %d: total %d, want the normalized %d", i, tk.total, progressUnits)
		}
		if tk.done < last {
			t.Fatalf("progress went backwards at tick %d: %d after %d\n%v", i, tk.done, last, ticks)
		}
		last = tk.done
	}
	if last != progressUnits {
		t.Fatalf("final progress %d/%d, want complete\n%v", last, progressUnits, ticks)
	}
}

// mapMemo is a map-backed factor memo on both sides: the planner's
// (plan.Memo), which keys a part by its text, and the executor's
// (FactorMemo), whose calls it counts.
type mapMemo struct {
	counts          map[string]*big.Int
	descs           map[string]*plan.Node
	lookups, stores int
}

func (m *mapMemo) Component(q cq.Query) (string, *plan.Node) {
	key := q.String()
	return key, m.descs[key]
}

func (m *mapMemo) LookupFactor(key string) (*big.Int, bool) {
	m.lookups++
	v, ok := m.counts[key]
	return v, ok
}

func (m *mapMemo) StoreFactor(key string, n *plan.Node, count *big.Int) {
	m.stores++
	m.counts[key] = count
	m.descs[key] = n.Description()
}

// TestExecutorAsksTheMemoOncePerPart: executing a factorized plan with
// two swept parts and an exact one twice against one memo asks the memo
// once per keyed part each time. The first execution runs and stores
// every part; the second takes every part from the memo, and its
// progress closes the windows of the sweeps it skips. Each execution's
// progress is monotone in the normalized units and reaches its total
// exactly once, at the end.
func TestExecutorAsksTheMemoOncePerPart(t *testing.T) {
	db := core.NewUniformDatabase([]string{"0", "1"})
	for i := 0; i < 19; i++ {
		db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%19)))
		db.MustAddFact("S", core.Null(core.NullID(21+i)), core.Null(core.NullID(21+(i+1)%19)))
	}
	db.MustAddFact("T", core.Null(41))
	q := cq.MustParseBCQ("R(x, x) ∧ S(y, y) ∧ T(z)")
	memo := &mapMemo{counts: map[string]*big.Int{}, descs: map[string]*plan.Node{}}
	po := PlanOptions(nil)
	p, err := plan.Build(db, q, classify.Valuations, &po, memo)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Op != plan.OpFactor || len(p.Root.Children) != 3 || sweepNodes(p.Root) != 2 {
		t.Fatalf("want a 3-part factorization with 2 sweeps:\n%s", p.Render())
	}
	for _, c := range p.Root.Children {
		if c.MemoKey == "" {
			t.Fatalf("part %v carries no memo key", c.Query)
		}
	}
	want, _, err := CountValuations(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for run, reused := range []int{0, 3} {
		var ticks [][2]int
		opts := &Options{Workers: 2, Progress: func(done, total int) { ticks = append(ticks, [2]int{done, total}) }}
		lookups, stores := memo.lookups, memo.stores
		n, rec, err := ExecutePlan(db, p, opts, memo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n.Cmp(want) != 0 {
			t.Fatalf("run %d: count %v, want %v", run, n, want)
		}
		if got := memo.lookups - lookups; got != 3 {
			t.Fatalf("run %d: %d lookups, want one per part", run, got)
		}
		if got, want := memo.stores-stores, 3-reused; got != want {
			t.Fatalf("run %d: %d stores, want %d", run, got, want)
		}
		if rec.FactorsReused != reused {
			t.Fatalf("run %d: record %+v, want %d parts reused", run, rec, reused)
		}
		if len(ticks) == 0 || ticks[len(ticks)-1] != [2]int{progressUnits, progressUnits} {
			t.Fatalf("run %d: progress %v does not end complete", run, ticks)
		}
		for i, tk := range ticks {
			if tk[1] != progressUnits || i > 0 && tk[0] < ticks[i-1][0] || tk[0] == progressUnits && i != len(ticks)-1 {
				t.Fatalf("run %d: tick %d of %v: not monotone in %d units, or complete before the end", run, i, ticks, progressUnits)
			}
		}
		// Each served swept part closes its own window.
		if want := [][2]int{{progressUnits / 2, progressUnits}, {progressUnits, progressUnits}}; reused > 0 && !slices.Equal(ticks, want) {
			t.Fatalf("run %d: progress %v, want %v", run, ticks, want)
		}
	}
}

// TestGuardMessageCarriesDecisions: a guard error on a planned sweep
// explains the rejected fast paths from the structured decision records.
func TestGuardMessageCarriesDecisions(t *testing.T) {
	db := core.NewUniformDatabase([]string{"0", "1"})
	for i := 0; i < 30; i++ {
		db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%30)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	_, _, err := CountValuations(db, q, &Options{MaxValuations: 1 << 10})
	if err == nil {
		t.Fatal("guard not enforced")
	}
	msg := err.Error()
	for _, frag := range []string{
		"no fast path applies",
		"Theorem 3.6",
		"Theorem 3.9",
		"single connected component",
		"capped at 18 cylinders",
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("guard message missing %q:\n%s", frag, msg)
		}
	}
}
