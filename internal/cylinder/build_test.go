package cylinder_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/cylinder"
)

// buildQueries are the shapes the indexed construction is checked on:
// the fuzz shapes, plus joins whose later atoms are indexed by a variable
// an earlier atom binds, in and out of the relations' syntactic order.
var buildQueries = append(slices.Clip(fuzzQueries),
	cq.MustParseBCQ("R(x, y) ∧ S(y, z)"),
	cq.MustParseBCQ("S(y, z) ∧ R(x, y) ∧ T(z, x)"),
	cq.MustParseBCQ("R(x, y) ∧ R(y, x) ∧ S(x)"),
)

// schemaOf returns the relations of q with their arities.
func schemaOf(q cq.Query) map[string]int {
	schema := map[string]int{}
	var disjuncts []*cq.BCQ
	switch t := q.(type) {
	case *cq.BCQ:
		disjuncts = []*cq.BCQ{t}
	case *cq.UCQ:
		disjuncts = t.Disjuncts
	}
	for _, d := range disjuncts {
		for _, a := range d.Atoms {
			schema[a.Rel] = len(a.Vars)
		}
	}
	return schema
}

// joinDB draws 1–12 facts per relation of schema over four constants and
// up to six nulls with domains in {a, b, c, d}, so index buckets hold
// several facts and wildcards interleave with them.
func joinDB(r *rand.Rand, schema map[string]int) *core.Database {
	universe := []string{"a", "b", "c", "d"}
	db := core.NewDatabase()
	nNulls := 1 + r.Intn(6)
	for i := 1; i <= nNulls; i++ {
		perm := r.Perm(len(universe))
		dom := make([]string, 0, len(universe))
		for _, p := range perm[:1+r.Intn(len(universe))] {
			dom = append(dom, universe[p])
		}
		db.SetDomain(core.NullID(i), dom)
	}
	for _, rel := range slices.Sorted(maps.Keys(schema)) {
		for k := r.Intn(12); k >= 0; k-- {
			args := make([]core.Value, schema[rel])
			for j := range args {
				if r.Intn(3) == 0 {
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

// sameSet reports the first difference between two cylinder sets: their
// cylinders in order, with their nulls, allowed values and weights, and
// their total weights.
func sameSet(got, want *cylinder.Set) error {
	if len(got.Cylinders) != len(want.Cylinders) {
		return fmt.Errorf("%d cylinders, want %d", len(got.Cylinders), len(want.Cylinders))
	}
	if got.Slots() != want.Slots() {
		return fmt.Errorf("%d slots, want %d", got.Slots(), want.Slots())
	}
	for j, g := range got.Cylinders {
		w := want.Cylinders[j]
		if len(g.Classes) != len(w.Classes) {
			return fmt.Errorf("cylinder %d: %d classes, want %d", j, len(g.Classes), len(w.Classes))
		}
		for i := range g.Classes {
			if !slices.Equal(g.Classes[i].Nulls, w.Classes[i].Nulls) || !slices.Equal(g.Classes[i].Allowed, w.Classes[i].Allowed) {
				return fmt.Errorf("cylinder %d class %d: %v/%v, want %v/%v", j, i,
					g.Classes[i].Nulls, g.Classes[i].Allowed, w.Classes[i].Nulls, w.Classes[i].Allowed)
			}
		}
		if g.Weight().Cmp(w.Weight()) != 0 {
			return fmt.Errorf("cylinder %d: weight %v, want %v", j, g.Weight(), w.Weight())
		}
	}
	if got.TotalWeight().Cmp(want.TotalWeight()) != 0 {
		return fmt.Errorf("total weight %v, want %v", got.TotalWeight(), want.TotalWeight())
	}
	return nil
}

// FuzzCylinderBuildMatchesOdometer: the indexed construction returns the
// cylinders of the odometer over every choice of facts, in its order,
// with the same nulls, allowed values and weights; and BuildAtMost
// returns that set when it has at most limit cylinders and otherwise
// refuses with ErrTooManyCylinders.
func FuzzCylinderBuildMatchesOdometer(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, source uint8) {
		q := buildQueries[int(shape)%len(buildQueries)]
		r := rand.New(rand.NewSource(seed))
		var db *core.Database
		switch source % 4 {
		case 0:
			db = fuzzDB(r)
		case 1:
			db = randomDB(r, schemaOf(q), true)
		case 2:
			db = randomDB(r, schemaOf(q), false)
		default:
			db = joinDB(r, schemaOf(q))
		}
		want, err := cylinder.BuildOdometer(db, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cylinder.Build(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSet(got, want); err != nil {
			t.Fatalf("q=%v: %v\ndb:\n%s", q, err, db)
		}
		m := len(want.Cylinders)
		limits := []int{max(m-1, 0), m, m + 1}
		for l := 0; l <= min(m, 40); l++ {
			limits = append(limits, l)
		}
		for _, limit := range limits {
			got, err := cylinder.BuildAtMost(db, q, limit)
			switch {
			case m > limit:
				if !errors.Is(err, cylinder.ErrTooManyCylinders) {
					t.Fatalf("q=%v limit %d of %d cylinders: err %v, want ErrTooManyCylinders\ndb:\n%s", q, limit, m, err, db)
				}
			case err != nil:
				t.Fatalf("q=%v limit %d of %d cylinders: %v\ndb:\n%s", q, limit, m, err, db)
			default:
				if err := sameSet(got, want); err != nil {
					t.Fatalf("q=%v limit %d: %v\ndb:\n%s", q, limit, err, db)
				}
			}
		}
	})
}

// TestSampleIndexMatchesBigRand: SampleIndex returns the index a
// big.Int.Rand draw below the total and a search of the running sums
// return, from the same *rand.Rand state, whether the sums are held in
// machine words or not; and the word-sized draw consumes what
// big.Int.Rand consumes, for limits around every power of two up to 2^64.
func TestSampleIndexMatchesBigRand(t *testing.T) {
	sets := 0
	for seed := int64(0); seed < 300; seed++ {
		for _, q := range buildQueries {
			db := fuzzDB(rand.New(rand.NewSource(seed)))
			set, err := cylinder.Build(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if set.TotalWeight().Sign() == 0 {
				continue
			}
			sets++
			checkSampleIndex(t, set, seed)
		}
	}
	if sets < 100 {
		t.Fatalf("only %d sets to sample from", sets)
	}
	// Eleven disjoint pairs over 70 constants: the sums overflow a word.
	dom := make([]string, 70)
	for i := range dom {
		dom[i] = fmt.Sprintf("c%d", i)
	}
	db := core.NewUniformDatabase(dom)
	for i := 1; i <= 11; i++ {
		db.MustAddFact("R", core.Null(core.NullID(2*i-1)), core.Null(core.NullID(2*i)))
	}
	set, err := cylinder.Build(db, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, words := set.CumSums(); words {
		t.Fatal("running sums past 2^64 held in machine words")
	}
	checkSampleIndex(t, set, 1)

	var limits []uint64
	for k := 1; k < 64; k++ {
		limits = append(limits, 1<<k-1, 1<<k, 1<<k+1)
	}
	limits = append(limits, 1, 3, math.MaxUint64, math.MaxUint64-1, 1<<63+1<<62, math.MaxUint64/3)
	for _, n := range limits {
		r1, r2 := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
		limit := new(big.Int).SetUint64(n)
		for k := 0; k < 20; k++ {
			got := cylinder.RandBelow(r1, n)
			want := new(big.Int).Rand(r2, limit)
			if !want.IsUint64() || got != want.Uint64() {
				t.Fatalf("limit %d draw %d: %d, big.Int.Rand %v", n, k, got, want)
			}
		}
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("limit %d: the sources diverged after the draws", n)
		}
	}
}

// TestWeightsOnceUnderConcurrency: the first weight reads of a fresh Set
// race from several goroutines, as concurrent estimates on one cached
// plan do; every reader sees the same weights and index stream.
func TestWeightsOnceUnderConcurrency(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 1; i <= 12; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%12+1)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	want, err := cylinder.BuildOdometer(db, q)
	if err != nil {
		t.Fatal(err)
	}
	wantIdx := make([]int, 100)
	r := rand.New(rand.NewSource(7))
	for k := range wantIdx {
		wantIdx[k] = want.SampleIndex(r)
	}
	set, err := cylinder.Build(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(7))
			for k, w := range wantIdx {
				if i := set.SampleIndex(r); i != w {
					errs[g] = fmt.Errorf("draw %d: index %d, want %d", k, i, w)
					return
				}
			}
			errs[g] = sameSet(set, want)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// checkSampleIndex draws 50 indices from set and compares them with
// big.Int.Rand over the running sums, each side on its own source of the
// same seed.
func checkSampleIndex(t *testing.T, set *cylinder.Set, seed int64) {
	t.Helper()
	cum, _ := set.CumSums()
	last := cum[len(cum)-1]
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for k := 0; k < 50; k++ {
		got := set.SampleIndex(r1)
		x := new(big.Int).Rand(r2, last)
		want := sort.Search(len(cum), func(i int) bool { return cum[i].Cmp(x) > 0 })
		if got != want {
			t.Fatalf("seed %d draw %d: index %d, big.Int.Rand gives %d (sums %v)", seed, k, got, want, cum)
		}
	}
}
