package incompletedb

import (
	"fmt"
	"math/big"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// --- E-SKIP: witness-block skip ----------------------------------------------
//
// Two #Val shapes of R(x, x) over {a, b} with the same count, 2^16 − 2.
// The sweep-val shape (a 16-cycle plus 3 chords keeping it bipartite)
// finds witnesses on early digits, so a satisfied leaf accounts for a
// whole block of valuations. The star R(?i, ?16) has no block to skip:
// every witness holds ?16, the sweep's last digit, so the sweep still
// steps through every valuation — the cost of a sweep the skip cannot
// shorten. BenchmarkValCheckpointed runs the checkpointed sweep of a
// larger star at one and two workers, where the shards' hot counters
// sit side by side.

// skipCycleDB is the n-cycle R(?1, ?2), …, R(?n, ?1) over {a, b} plus
// the given chords between cycle positions (0-based).
func skipCycleDB(n int, chords [][2]int) *core.Database {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 0; i < n; i++ {
		db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%n)))
	}
	for _, c := range chords {
		db.MustAddFact("R", core.Null(core.NullID(1+c[0])), core.Null(core.NullID(1+c[1])))
	}
	return db
}

// skipStarDB is the star R(?i, ?n), i < n, over {a, b}.
func skipStarDB(n int) *core.Database {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i < n; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(n)))
	}
	return db
}

func BenchmarkValWitnessSkip(b *testing.B) {
	q := cq.MustParseBCQ("R(x, x)")
	want := big.NewInt(1<<16 - 2)
	shapes := []struct {
		name string
		db   *core.Database
	}{
		{"sweep-val", skipCycleDB(16, [][2]int{{0, 5}, {3, 10}, {6, 13}})},
		{"star", skipStarDB(16)},
	}
	for _, s := range shapes {
		b.Run("shape="+s.name, func(b *testing.B) {
			opts := &count.Options{Workers: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := count.BruteForceValuations(s.db, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				if n.Cmp(want) != 0 {
					b.Fatalf("#Val %v, want %v", n, want)
				}
			}
		})
	}
}

func BenchmarkValCheckpointed(b *testing.B) {
	q := cq.MustParseBCQ("R(x, x)")
	db := skipStarDB(18)
	want := big.NewInt(1<<18 - 2)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := &count.Options{Workers: w, Checkpoint: count.NewCheckpointer(0, nil)}
				n, err := count.BruteForceValuations(db, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				if n.Cmp(want) != 0 {
					b.Fatalf("#Val %v, want %v", n, want)
				}
			}
		})
	}
}
