package main

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// The closed forms the benchmark checks answers against must agree with
// the serial escape-hatch brute force on small instances.

func wantBrute(t *testing.T, what, db, query string, kind classify.CountingKind, want *big.Int) {
	t.Helper()
	got, err := bruteCount(db, query, kind)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.Cmp(want) != 0 {
		t.Errorf("%s: brute force counts %v, the closed form says %v", what, got, want)
	}
}

func TestCycleValReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 3; n <= 10; n++ {
		wantBrute(t, fmt.Sprintf("%d-cycle", n), cycleDB("t", 5, n, nil), cycleQuery, classify.Valuations, cycleVal(n))
		if n%2 == 0 && n >= 6 {
			wantBrute(t, fmt.Sprintf("%d-cycle with chords", n), cycleDB("t", 5, n, chords(r, n, 2)), cycleQuery, classify.Valuations, cycleVal(n))
		}
	}
}

func TestCoddValReference(t *testing.T) {
	for n := 1; n <= 4; n++ {
		wantBrute(t, fmt.Sprintf("%d Codd facts", n), coddDB("t", 3, n), cycleQuery, classify.Valuations, coddVal(n))
	}
}

func TestDedupCompReference(t *testing.T) {
	for pairs := 2; pairs <= 5; pairs++ {
		wantBrute(t, fmt.Sprintf("%d dedup pairs", pairs), dedupDB("t", 1, pairs), "R(x) ∧ S(x)", classify.Completions, big.NewInt(dedupComp))
	}
}

func TestJoinValReference(t *testing.T) {
	for pairs := 1; pairs <= 6; pairs++ {
		wantBrute(t, fmt.Sprintf("%d join pairs", pairs), joinDB("t", pairs), "R(x, y) ∧ S(y, z)", classify.Valuations, big.NewInt(joinVal))
	}
}

func TestComponentsValReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, sizes := range [][]int{{4}, {3}, {4, 2}, {4, 3, 2}} {
		db := componentsDB(r, sizes)
		q := componentsQuery(len(sizes))
		wantBrute(t, fmt.Sprint(sizes), db, q, classify.Valuations, componentsVal(sizes, false))
		wantBrute(t, fmt.Sprint(sizes, " with a ground fact"), db+"C0(g, g)\n", q, classify.Valuations, componentsVal(sizes, true))
	}
}

// TestCycleEstimateRange checks the quantities the estimate range is built
// from (n cylinders of total weight n·2^(n−1)) and that estimates under
// many sampling seeds stay inside it.
func TestCycleEstimateRange(t *testing.T) {
	q := cq.MustParse(cycleQuery)
	for n := 4; n <= 10; n++ {
		db, err := core.ParseDatabaseString(cycleDB("t", 1, n, nil))
		if err != nil {
			t.Fatal(err)
		}
		pdb, err := solver.NewSolver().Prepare(db)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := cycleEstimateRange(n)
		for seed := int64(1); seed <= 20; seed++ {
			res, err := pdb.Estimate(context.Background(), q, 0.3, 0.3, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cylinders != n || res.TotalWeight.String() != strconv.FormatInt(hi, 10) {
				t.Fatalf("%d-cycle: %d cylinders of weight %v, want %d of weight %d", n, res.Cylinders, res.TotalWeight, n, hi)
			}
			if e := res.Estimate.Int64(); e < lo || e > hi {
				t.Errorf("%d-cycle, seed %d: estimate %d outside [%d, %d]", n, seed, e, lo, hi)
			}
		}
	}
}
