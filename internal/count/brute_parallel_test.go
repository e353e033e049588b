package count

import (
	"context"
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Tests of the sharded brute-force engine: parallel sweeps must be
// bit-identical to serial ones on every input, shard geometry must
// partition the index space, and cancellation must abort sweeps.

// randomNaiveDB builds a random non-uniform naïve database: nulls may
// repeat across facts and each null gets its own random domain.
func randomNaiveDB(r *rand.Rand, schema map[string]int, maxFactsPerRel, nNulls, domSize int) *core.Database {
	db := core.NewDatabase()
	alphabet := []string{"a", "b", "c", "d", "e"}
	for n := 1; n <= nNulls; n++ {
		size := 1 + r.Intn(domSize)
		dom := make([]string, size)
		for i := range dom {
			dom[i] = alphabet[(r.Intn(len(alphabet))+i)%len(alphabet)]
		}
		db.SetDomain(core.NullID(n), dom)
	}
	for _, rel := range slices.Sorted(maps.Keys(schema)) {
		arity := schema[rel]
		nf := 1 + r.Intn(maxFactsPerRel)
		for f := 0; f < nf; f++ {
			args := make([]core.Value, arity)
			for i := range args {
				if r.Intn(2) == 0 {
					args[i] = core.Null(core.NullID(1 + r.Intn(nNulls)))
				} else {
					args[i] = core.Const(alphabet[r.Intn(len(alphabet))])
				}
			}
			db.MustAddFact(rel, args...)
		}
	}
	// Nulls that ended up unused are harmless; ones in use all have domains.
	return db
}

// TestParallelBruteMatchesSerial: on randomized naïve, Codd and uniform
// databases, the parallel engine returns exactly the serial counts for
// both #Val and #Comp, for several worker counts.
func TestParallelBruteMatchesSerial(t *testing.T) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	schema := map[string]int{"R": 2, "S": 1}
	builders := map[string]func(r *rand.Rand) *core.Database{
		"naive": func(r *rand.Rand) *core.Database {
			return randomNaiveDB(r, schema, 3, 4, 3)
		},
		"codd": func(r *rand.Rand) *core.Database {
			return randomCoddDB(r, schema, 3, 3)
		},
		"uniform": func(r *rand.Rand) *core.Database {
			return randomUniformDB(r, schema, 3, 4, 3)
		},
	}
	serial := &Options{Workers: 1}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, w uint8) bool {
				r := rand.New(rand.NewSource(seed))
				db := build(r)
				workers := 2 + int(w%7)
				parallel := &Options{Workers: workers}
				v1, err1 := BruteForceValuations(db, q, serial)
				v2, err2 := BruteForceValuations(db, q, parallel)
				c1, err3 := BruteForceCompletions(db, q, serial)
				c2, err4 := BruteForceCompletions(db, q, parallel)
				if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
					t.Logf("errors: %v %v %v %v", err1, err2, err3, err4)
					return false
				}
				return v1.Cmp(v2) == 0 && c1.Cmp(c2) == 0
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParallelEnumerateCompletionsOrder: EnumerateCompletions returns the
// same completions in the same order for serial and parallel sweeps.
func TestParallelEnumerateCompletionsOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomUniformDB(r, map[string]int{"R": 1, "S": 2}, 3, 4, 2)
		serial, err := EnumerateCompletions(db, &Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8} {
			parallel, err := EnumerateCompletions(db, &Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if len(parallel) != len(serial) {
				t.Fatalf("seed %d workers %d: %d completions, want %d", seed, w, len(parallel), len(serial))
			}
			for i := range serial {
				if parallel[i].CanonicalKey() != serial[i].CanonicalKey() {
					t.Fatalf("seed %d workers %d: completion %d differs", seed, w, i)
				}
			}
		}
	}
}

// TestParallelMoreWorkersThanValuations: worker counts beyond the space
// size collapse to one shard per valuation and still count correctly.
func TestParallelMoreWorkersThanValuations(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2)) // 4 valuations
	q := cq.MustParseBCQ("R(x, x)")
	n, err := BruteForceValuations(db, q, &Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("count %v, want 2", n)
	}
	c, err := BruteForceCompletions(db, q, &Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("completions %v, want 2", c)
	}
}

// TestShardBoundsPartition: shard boundaries exactly partition [0, size)
// with balanced widths.
func TestShardBoundsPartition(t *testing.T) {
	for _, tc := range []struct{ size, shards int64 }{
		{10, 3}, {7, 7}, {100, 8}, {5, 1}, {4096, 5},
	} {
		bounds := shardBounds(big.NewInt(tc.size), int(tc.shards))
		if int64(len(bounds)) != tc.shards+1 {
			t.Fatalf("size %d shards %d: %d bounds", tc.size, tc.shards, len(bounds))
		}
		if bounds[0].Sign() != 0 || bounds[tc.shards].Cmp(big.NewInt(tc.size)) != 0 {
			t.Fatalf("size %d shards %d: bounds %v", tc.size, tc.shards, bounds)
		}
		min, max := big.NewInt(tc.size), big.NewInt(0)
		for i := int64(0); i < tc.shards; i++ {
			width := new(big.Int).Sub(bounds[i+1], bounds[i])
			if width.Cmp(min) < 0 {
				min = width
			}
			if width.Cmp(max) > 0 {
				max = width
			}
		}
		if new(big.Int).Sub(max, min).Cmp(big.NewInt(1)) > 0 {
			t.Fatalf("size %d shards %d: unbalanced widths %v..%v", tc.size, tc.shards, min, max)
		}
	}
}

// TestBruteForceCancellation: a cancelled context aborts the sweep with
// its error, both serial and parallel.
func TestBruteForceCancellation(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c", "d"})
	for i := 1; i <= 10; i++ { // 4^10 ≈ 1M valuations, enough to outlive a cancel
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		opts := &Options{Workers: w, Context: ctx}
		if _, err := BruteForceValuations(db, q, opts); err != context.Canceled {
			t.Fatalf("workers %d: valuations err = %v, want context.Canceled", w, err)
		}
		if _, err := BruteForceCompletions(db, q, opts); err != context.Canceled {
			t.Fatalf("workers %d: completions err = %v, want context.Canceled", w, err)
		}
	}
}

// TestGuardReportsRejectedFastPaths: when the dispatcher falls through to
// brute force and the guard trips, the error explains which fast paths
// were already ruled out instead of suggesting "use an exact algorithm".
func TestGuardReportsRejectedFastPaths(t *testing.T) {
	// 25 R(?i,?i) facts, domains of size 3: 3^25 valuations (beyond the
	// guard), 25 cylinders (beyond the IE cap), non-Codd-friendly query.
	db := core.NewDatabase()
	for i := 1; i <= 25; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i)))
		db.SetDomain(core.NullID(i), []string{"a", "b", "c"})
	}
	_, m, err := CountValuations(db, cq.MustParseBCQ("R(x, x)"), nil)
	if err == nil {
		t.Fatalf("guard did not trip (method %s)", m)
	}
	msg := err.Error()
	for _, frag := range []string{"Theorem 3.6", "Theorem 3.9", "cylinder", "capped at 18"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("guard error missing %q:\n%s", frag, msg)
		}
	}
	if strings.Contains(msg, "use an exact algorithm") {
		t.Errorf("guard error still carries the misleading hint:\n%s", msg)
	}

	// The direct brute-force entry points keep the generic hint: nothing
	// was dispatched, so nothing was rejected.
	_, err = BruteForceValuations(db, cq.MustParseBCQ("R(x, x)"), nil)
	if err == nil || !strings.Contains(err.Error(), "use an exact algorithm") {
		t.Errorf("direct brute-force guard error: %v", err)
	}

	// #Comp dispatch reports its own rejections.
	_, _, err = CountCompletions(db, cq.MustParseBCQ("R(x, x)"), nil)
	if err == nil || !strings.Contains(err.Error(), "Theorem 4.6") {
		t.Errorf("completions guard error: %v", err)
	}
}

// TestParallelSemanticsAgree: IsCertain/IsPossible (serial early-exit
// sweeps) agree with counting through the parallel engine.
func TestParallelSemanticsAgree(t *testing.T) {
	q := cq.MustParseBCQ("R(x, x)")
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomUniformDB(r, map[string]int{"R": 2}, 3, 3, 3)
		opts := &Options{Workers: 4}
		n, err := BruteForceValuations(db, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		total, _ := db.NumValuations()
		certain, err := IsCertain(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		possible, err := IsPossible(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if certain != (n.Cmp(total) == 0) {
			t.Fatalf("seed %d: certain=%v but %v/%v valuations satisfy", seed, certain, n, total)
		}
		if possible != (n.Sign() > 0) {
			t.Fatalf("seed %d: possible=%v but count %v", seed, possible, n)
		}
	}
}

// TestParallelEmptyDomain: a null with an empty domain yields zero
// valuations and completions under any worker count.
func TestParallelEmptyDomain(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1))
	db.SetDomain(1, nil)
	for _, w := range []int{1, 4} {
		n, err := BruteForceValuations(db, cq.MustParseBCQ("R(x)"), &Options{Workers: w})
		if err != nil || n.Sign() != 0 {
			t.Fatalf("workers %d: %v, err %v", w, n, err)
		}
		insts, err := EnumerateCompletions(db, &Options{Workers: w})
		if err != nil || len(insts) != 0 {
			t.Fatalf("workers %d: %d completions, err %v", w, len(insts), err)
		}
	}
}

// TestParallelLargeSpaceAgreement: a space big enough to shard under the
// default options (beyond serialCutoff) still matches the serial count.
func TestParallelLargeSpaceAgreement(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 1; i <= 9; i++ { // 3^9 = 19683 > serialCutoff
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID((i%9)+1)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	serial, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := BruteForceValuations(db, q, nil) // default worker pool
	if err != nil {
		t.Fatal(err)
	}
	par, err := BruteForceValuations(db, q, &Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cmp(def) != 0 || serial.Cmp(par) != 0 {
		t.Fatalf("serial %v, default %v, workers=5 %v", serial, def, par)
	}
	cs, err := BruteForceCompletions(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := BruteForceCompletions(db, q, &Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Cmp(cp) != 0 {
		t.Fatalf("completions serial %v, parallel %v", cs, cp)
	}
}

func ExampleOptions_workers() {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	n, _ := BruteForceValuations(db, cq.MustParseBCQ("R(x, x)"), &Options{Workers: 4})
	fmt.Println(n)
	// Output: 2
}
