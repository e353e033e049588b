package solver

import (
	"context"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// TestStatsKernelReported: a count whose plan sweeps reports "uint64",
// the width of every shard tally; a closed-form route (no sweep node)
// leaves the field empty.
func TestStatsKernelReported(t *testing.T) {
	ctx := context.Background()

	// An inequality keeps the query off every fast path: the plan must
	// brute-force sweep.
	hard := core.NewUniformDatabase([]string{"a", "b"})
	hard.MustAddFact("R", core.Null(1), core.Null(2))
	hard.MustAddFact("R", core.Null(2), core.Null(3))
	s := NewSolver()
	p, err := s.Prepare(hard)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Count(ctx, cq.MustParse("R(x, y) ∧ x ≠ y"), classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SweptValuations == nil {
		t.Fatal("hard query did not sweep; the kernel assertion below pins nothing")
	}
	if res.Stats.Kernel != "uint64" {
		t.Fatalf("swept count reports kernel %q, want uint64", res.Stats.Kernel)
	}

	// The Codd closed form of Theorem 3.7 enumerates nothing.
	codd := core.NewDatabase()
	codd.MustAddFact("S", core.Null(1), core.Null(2))
	if err := codd.SetDomain(1, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := codd.SetDomain(2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	pc, err := s.Prepare(codd)
	if err != nil {
		t.Fatal(err)
	}
	res, err = pc.Count(ctx, cq.MustParseBCQ("S(x, x)"), classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SweptValuations != nil {
		t.Fatal("closed-form query swept")
	}
	if res.Stats.Kernel != "" {
		t.Fatalf("closed-form count reports kernel %q, want empty", res.Stats.Kernel)
	}
}
