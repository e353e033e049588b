package cylinder_test

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/cylinder"
)

func randomDB(r *rand.Rand, schema map[string]int, uniform bool) *core.Database {
	var db *core.Database
	universe := []string{"a", "b", "c"}
	if uniform {
		db = core.NewUniformDatabase(universe)
	} else {
		db = core.NewDatabase()
	}
	nNulls := 1 + r.Intn(4)
	if !uniform {
		for i := 1; i <= nNulls; i++ {
			size := 1 + r.Intn(3)
			perm := r.Perm(len(universe))
			dom := make([]string, 0, size)
			for _, p := range perm[:size] {
				dom = append(dom, universe[p])
			}
			db.SetDomain(core.NullID(i), dom)
		}
	}
	for _, rel := range slices.Sorted(maps.Keys(schema)) {
		arity := schema[rel]
		nf := 1 + r.Intn(3)
		for i := 0; i < nf; i++ {
			args := make([]core.Value, arity)
			for j := range args {
				if r.Intn(2) == 0 {
					args[j] = core.Null(core.NullID(1 + r.Intn(nNulls)))
				} else {
					args[j] = core.Const(universe[r.Intn(len(universe))])
				}
			}
			db.MustAddFact(rel, args...)
		}
	}
	return db
}

func TestBuildSimple(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	q := cq.MustParseBCQ("R(x, x)")
	s, err := cylinder.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cylinders) != 1 {
		t.Fatalf("%d cylinders, want 1", len(s.Cylinders))
	}
	c := s.Cylinders[0]
	if len(c.Classes) != 1 || len(c.Classes[0].Nulls) != 2 {
		t.Fatalf("classes %v", c.Classes)
	}
	if c.Weight().Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("weight %v, want 2", c.Weight())
	}
}

func TestBuildConflictingPins(t *testing.T) {
	// Atom R(x, x) against fact R(a, b): unsatisfiable, no cylinder.
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Const("a"), core.Const("b"))
	s, err := cylinder.Build(db, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cylinders) != 0 {
		t.Fatalf("%d cylinders, want 0", len(s.Cylinders))
	}
}

func TestBuildPinOutsideDomain(t *testing.T) {
	// R(?1, a) matched against R(x, x): pin ν(?1)=a; a ∉ dom(?1) -> none.
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Const("a"))
	db.SetDomain(1, []string{"b", "c"})
	s, err := cylinder.Build(db, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cylinders) != 0 {
		t.Fatalf("%d cylinders, want 0", len(s.Cylinders))
	}
}

func TestBuildRejectsNonUCQ(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a"})
	if _, err := cylinder.Build(db, cq.MustParse("!R(x)")); err == nil {
		t.Fatal("negation accepted")
	}
	if _, err := cylinder.Build(db, cq.Tautology{}); err == nil {
		t.Fatal("tautology accepted")
	}
}

func TestCylinderContains(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.SetDomain(1, []string{"a", "b"})
	db.SetDomain(2, []string{"b", "c"})
	s, err := cylinder.Build(db, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cylinders) != 1 {
		t.Fatalf("%d cylinders", len(s.Cylinders))
	}
	c := s.Cylinders[0]
	if !c.Contains(core.Valuation{1: "b", 2: "b"}) {
		t.Error("should contain the matching valuation")
	}
	if c.Contains(core.Valuation{1: "a", 2: "b"}) {
		t.Error("should not contain a mismatched valuation")
	}
	if c.Weight().Cmp(big.NewInt(1)) != 0 {
		t.Errorf("weight %v, want 1 (intersection {b})", c.Weight())
	}
}

// TestUnionCountAgainstBrute is the key validation: inclusion–exclusion
// over cylinders equals brute-force counting (the Proposition 5.2 witness
// semantics is exact).
func TestUnionCountAgainstBrute(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseBCQ("R(x, x)"),
		cq.MustParseBCQ("R(x, y) ∧ S(y)"),
		cq.MustParseBCQ("R(x) ∧ S(x)"),
		cq.MustParse("R(x, x) | S(y)"),
	}
	for _, q := range queries {
		schema := schemaOf(q)
		for seed := int64(0); seed < 25; seed++ {
			for _, uniform := range []bool{true, false} {
				r := rand.New(rand.NewSource(seed))
				db := randomDB(r, schema, uniform)
				set, err := cylinder.Build(db, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(set.Cylinders) > 20 {
					continue
				}
				got, err := set.UnionCountParallel(context.Background(), 1)
				if err != nil {
					t.Fatal(err)
				}
				want, err := count.BruteForceValuations(db, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("q=%v uniform=%v seed=%d: union=%v brute=%v\ndb:\n%s",
						q, uniform, seed, got, want, db)
				}
			}
		}
	}
}

func TestSampleValuationInsideCylinder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := randomDB(r, map[string]int{"R": 2, "S": 1}, false)
	set, err := cylinder.Build(db, cq.MustParseBCQ("R(x, y) ∧ S(y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Cylinders) == 0 {
		t.Skip("no cylinders for this seed")
	}
	vals := make([]int32, set.Slots())
	for s := 0; s < 200; s++ {
		i := set.SampleIndex(r)
		set.SampleValuation(i, r, vals)
		v := set.Valuation(vals)
		if !set.Cylinders[i].Contains(v) {
			t.Fatalf("sampled valuation %v outside its cylinder %d", v, i)
		}
		for n, c := range v {
			if !slices.Contains(db.Domain(n), c) {
				t.Fatalf("sampled valuation %v violates the domain of %v", v, n)
			}
		}
		want := 0
		for _, c := range set.Cylinders {
			if c.Contains(v) {
				want++
			}
		}
		if got := set.CountContaining(vals); got != want || got < 1 {
			t.Fatalf("CountContaining = %d, Contains accepts %d cylinders", got, want)
		}
	}
}

// TestSampleIndexProportional draws many cylinder indices and checks the
// empirical distribution tracks the weights.
func TestSampleIndexProportional(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1))
	db.MustAddFact("R", core.Null(2))
	db.SetDomain(1, []string{"a", "b", "c", "d", "e", "f", "g", "h"}) // weight 8? no:
	db.SetDomain(2, []string{"a", "b"})
	// q = R(x): cylinders are (fact R(?1)) with weight |dom1|*... careful:
	// cylinder 1 constrains ?1 (8 ways) and leaves ?2 free (2): weight 16;
	// cylinder 2 weight 16 as well. Use different fact counts instead:
	s, err := cylinder.Build(db, cq.MustParseBCQ("R(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cylinders) != 2 {
		t.Fatalf("%d cylinders", len(s.Cylinders))
	}
	r := rand.New(rand.NewSource(11))
	counts := make([]int, 2)
	for i := 0; i < 2000; i++ {
		counts[s.SampleIndex(r)]++
	}
	// Both cylinders have equal weight; expect a roughly 50/50 split.
	if counts[0] < 800 || counts[0] > 1200 {
		t.Fatalf("biased sampling: %v", counts)
	}
}

// TestUnionCountGuard: 19 cylinders, one past MaxUnionCylinders, are
// refused.
func TestUnionCountGuard(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a"})
	for i := 1; i <= 19; i++ {
		db.MustAddFact("R", core.Const(fmt.Sprintf("k%d", i)))
	}
	set, err := cylinder.Build(db, cq.MustParseBCQ("R(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.UnionCountParallel(context.Background(), 1); err == nil {
		t.Fatal("inclusion–exclusion guard not enforced")
	}
}

func TestUnionCountCancellation(t *testing.T) {
	// 18 cylinders, the most the walk accepts: 2^18 subset terms, but
	// the subset loop must notice a cancelled context right away.
	db := core.NewUniformDatabase([]string{"a"})
	for i := 1; i <= cylinder.MaxUnionCylinders; i++ {
		db.MustAddFact("R", core.Const(fmt.Sprintf("k%d", i)))
	}
	set, err := cylinder.Build(db, cq.MustParseBCQ("R(x)"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := set.UnionCountParallel(ctx, 1); err != context.Canceled {
		t.Fatalf("cancelled UnionCount err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; the subset loop is not polling the context", elapsed)
	}
}

func TestEmptyRelationNoCylinders(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a"})
	db.MustAddFact("R", core.Null(1))
	s, err := cylinder.Build(db, cq.MustParseBCQ("R(x) ∧ S(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cylinders) != 0 {
		t.Fatal("cylinders for an empty relation")
	}
	u, err := s.UnionCountParallel(context.Background(), 1)
	if err != nil || u.Sign() != 0 {
		t.Fatalf("union %v, err %v", u, err)
	}
}

func TestUnionCountParallelMatchesSerial(t *testing.T) {
	// 12 cylinders → 4095 subset terms. Above one worker the walk shards
	// by the include/exclude choices of a prefix of the cylinders, at
	// every size, so the count must not depend on the worker count.
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 1; i <= 12; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%12+1)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	set, err := cylinder.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Cylinders) != 12 {
		t.Fatalf("built %d cylinders, want 12", len(set.Cylinders))
	}
	serial, err := set.UnionCountParallel(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := count.BruteForceValuations(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cmp(want) != 0 {
		t.Fatalf("serial union = %v, brute = %v", serial, want)
	}
	for _, workers := range []int{1, 2, 3, 4, 7, 64, 10000} {
		got, err := set.UnionCountParallel(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(serial) != 0 {
			t.Fatalf("workers=%d: parallel union = %v, serial = %v", workers, got, serial)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := set.UnionCountParallel(ctx, 4); err != context.Canceled {
		t.Fatalf("cancelled parallel union err = %v", err)
	}
}

// fuzzQueries are the query shapes of FuzzUnionCountMatchesBrute: BCQs
// with repeated variables, joins and unary atoms, and UCQs over them.
var fuzzQueries = []cq.Query{
	cq.MustParseBCQ("R(x, x)"),
	cq.MustParseBCQ("R(x, y) ∧ S(y)"),
	cq.MustParseBCQ("R(x, y) ∧ T(y, x)"),
	cq.MustParseBCQ("R(x, y) ∧ R(y, z)"),
	cq.MustParse("R(x, x) | S(y)"),
	cq.MustParse("R(x, y) ∧ S(x) | T(z, z)"),
}

// fuzzDB draws a small non-uniform database from r, the same one for the
// same seed. Domains come from a pool of 70 constants, and in half the
// databases two nulls have wide domains of 68–70 of them, so a class that
// unifies them allows more than 64 and the masks span two words; facts
// mention a few of the same constants, so pins, pin conflicts and empty
// intersections all occur. The valuation space is at most 70²·2³, small
// enough to enumerate.
func fuzzDB(r *rand.Rand) *core.Database {
	pool := make([]string, 70)
	for i := range pool {
		pool[i] = fmt.Sprintf("c%d", i)
	}
	db := core.NewDatabase()
	nNulls := 1 + r.Intn(5)
	wide := r.Intn(2) == 0
	for i := 1; i <= nNulls; i++ {
		perm := r.Perm(len(pool))
		dom := make([]string, 0, len(pool))
		switch {
		case wide && i <= 2:
			for _, p := range perm[:68+r.Intn(3)] {
				dom = append(dom, pool[p])
			}
		default:
			// Narrow domains favour the few constants facts use.
			size := 1 + r.Intn(3)
			if wide {
				size = 1 + r.Intn(2)
			}
			for _, p := range perm[:size] {
				if r.Intn(2) == 0 {
					p %= 4
				}
				dom = append(dom, pool[p])
			}
		}
		db.SetDomain(core.NullID(i), dom)
	}
	for _, rel := range []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 1}, {"T", 2}} {
		for k := r.Intn(4); k >= 0; k-- {
			args := make([]core.Value, rel.arity)
			for j := range args {
				if r.Intn(3) > 0 {
					args[j] = core.Null(core.NullID(1 + r.Intn(nNulls)))
				} else {
					args[j] = core.Const(pool[r.Intn(4)])
				}
			}
			db.MustAddFact(rel.name, args...)
		}
	}
	return db
}

// FuzzUnionCountMatchesBrute is differential testing of the compiled
// kernel: inclusion–exclusion at 1, 2 and 7 workers equals brute force,
// every cylinder's weight equals the number of valuations its Contains
// accepts, and on sampled valuations the slot-based CountContaining
// agrees with Contains.
func FuzzUnionCountMatchesBrute(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		db := fuzzDB(rand.New(rand.NewSource(seed)))
		q := fuzzQueries[int(shape)%len(fuzzQueries)]
		set, err := cylinder.Build(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Cylinders) > 16 {
			t.Skip("too many cylinders to enumerate quickly")
		}
		want, err := count.BruteForceValuations(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := set.UnionCountParallel(context.Background(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("q=%v workers=%d: union %v, brute %v\ndb:\n%s", q, workers, got, want, db)
			}
		}
		weights := make([]int64, len(set.Cylinders))
		if err := db.ForEachValuation(func(v core.Valuation) bool {
			for j, c := range set.Cylinders {
				if c.Contains(v) {
					weights[j]++
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for j, c := range set.Cylinders {
			if c.Weight().Cmp(big.NewInt(weights[j])) != 0 {
				t.Fatalf("q=%v cylinder %d: weight %v, Contains accepts %d\ndb:\n%s", q, j, c.Weight(), weights[j], db)
			}
		}
		if set.TotalWeight().Sign() == 0 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		vals := make([]int32, set.Slots())
		for k := 0; k < 20; k++ {
			i := set.SampleIndex(r)
			set.SampleValuation(i, r, vals)
			v := set.Valuation(vals)
			want := 0
			for _, c := range set.Cylinders {
				if c.Contains(v) {
					want++
				}
			}
			if got := set.CountContaining(vals); !set.Cylinders[i].Contains(v) || got != want {
				t.Fatalf("q=%v: sample %v of cylinder %d: CountContaining %d, Contains accepts %d\ndb:\n%s", q, v, i, got, want, db)
			}
		}
	})
}

// TestUnionCountBeyondMachineWords: eleven disjoint pairs R(?2i−1, ?2i)
// over 70 constants. Every term's product and every cylinder's weight
// overflows a uint64, so the walk's big.Int path runs, and each class
// allows all 70 constants, so the masks span two words.
func TestUnionCountBeyondMachineWords(t *testing.T) {
	dom := make([]string, 70)
	for i := range dom {
		dom[i] = fmt.Sprintf("c%d", i)
	}
	db := core.NewUniformDatabase(dom)
	const pairs = 11
	for i := 1; i <= pairs; i++ {
		db.MustAddFact("R", core.Null(core.NullID(2*i-1)), core.Null(core.NullID(2*i)))
	}
	set, err := cylinder.Build(db, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	// A valuation misses R(x, x) iff every pair differs: #Val = 70^22 − (70·69)^11.
	want := new(big.Int).Exp(big.NewInt(70), big.NewInt(2*pairs), nil)
	want.Sub(want, new(big.Int).Exp(big.NewInt(70*69), big.NewInt(pairs), nil))
	for _, workers := range []int{1, 3} {
		got, err := set.UnionCountParallel(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("workers=%d: union %v, want %v", workers, got, want)
		}
	}
	r := rand.New(rand.NewSource(1))
	counts := make([]int, pairs)
	vals := make([]int32, set.Slots())
	for i := 0; i < 100*pairs; i++ {
		j := set.SampleIndex(r)
		counts[j]++
		set.SampleValuation(j, r, vals)
		if v := set.Valuation(vals); !set.Cylinders[j].Contains(v) {
			t.Fatalf("sampled valuation %v outside its cylinder %d", v, j)
		}
	}
	// The cylinders weigh the same: about 100 draws each.
	for j, c := range counts {
		if c < 50 || c > 150 {
			t.Fatalf("cylinder %d drawn %d times of %d: %v", j, c, 100*pairs, counts)
		}
	}
}

// TestPrivateDomainsStayInBudget: facts R(?1, …, ?8), R(?9, …, ?16), …
// over nulls that each have constants of their own; ?1 and ?2 also share
// s. R(x, x, y₁, …, y₆) has one cylinder. Build and inclusion–exclusion
// must allocate in proportion to the total of the domain sizes, not to
// the number of nulls times the number of constants (about 32 MB of
// masks here).
func TestPrivateDomainsStayInBudget(t *testing.T) {
	const (
		n     = 8000 // nulls
		arity = 8
		d     = 4 // private constants per null
	)
	db := core.NewDatabase()
	for i := 1; i <= n; i++ {
		dom := make([]string, 0, d+1)
		for k := 0; k < d; k++ {
			dom = append(dom, fmt.Sprintf("k%d_%d", i, k))
		}
		if i <= 2 {
			dom = append(dom, "s")
		}
		db.SetDomain(core.NullID(i), dom)
	}
	for i := 0; i < n; i += arity {
		args := make([]core.Value, arity)
		for p := range args {
			args[p] = core.Null(core.NullID(i + p + 1))
		}
		db.MustAddFact("R", args...)
	}
	db.Nulls() // cached by the database, not allocated by Build
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	set, err := cylinder.Build(db, cq.MustParseBCQ("R(x, x, y1, y2, y3, y4, y5, y6)"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := set.UnionCountParallel(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(set.Cylinders) != 1 {
		t.Fatalf("%d cylinders, want 1", len(set.Cylinders))
	}
	// Only ?1 = ?2 = s satisfies R(x, x, …); the other nulls are free.
	if want := new(big.Int).Exp(big.NewInt(d), big.NewInt(n-2), nil); got.Cmp(want) != 0 {
		t.Fatalf("union = %v, want %d^%d", got, d, n-2)
	}
	const budget = 128 * n * d
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
		t.Fatalf("Build and UnionCount allocated %d bytes, budget %d (128 per domain constant)", alloc, budget)
	}
}
