package count

import (
	"fmt"
	"strconv"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// This file implements the certainty-refinement semantics the counting
// problems support: the classical certain/possible decision problems, and
// the database of the relative-frequency measure µ_k(q, D) of Libkin's
// 0–1-law framework discussed in Section 7 of the paper, which the
// solver's Mu counts over.

// IsCertain reports whether q holds in EVERY completion of db (the problem
// Certainty(q) for Boolean queries). It enumerates valuations on the
// compiled sweep engine with early exit (and relevant-null pruning, since
// the verdict is constant across the factored-out nulls) and is guarded
// like the brute-force counters; for the tractable Table 1 cells,
// comparing CountValuations against the total is the polynomial route.
// A database with zero valuations (an empty domain) has no completion;
// by the usual convention every query is then (vacuously) certain.
func IsCertain(db *core.Database, q cq.Query, opts *Options) (bool, error) {
	sat, size, err := sweepUntil(db, q, opts, false)
	return err == nil && sat == size, err
}

// IsPossible reports whether q holds in SOME completion of db, with early
// exit.
func IsPossible(db *core.Database, q cq.Query, opts *Options) (bool, error) {
	sat, _, err := sweepUntil(db, q, opts, true)
	return sat > 0, err
}

// sweepUntil runs the range loop serially over the whole enumerated space
// until a leaf whose verdict is want, passing over satisfied witness
// blocks whole. It returns the satisfying valuations accounted for and
// the size of the space — both 0 when db has no valuation at all.
func sweepUntil(db *core.Database, q cq.Query, opts *Options, want bool) (sat, size uint64, err error) {
	eng, err := compileGuarded(db, q, sweep.ModeValuations, opts)
	if err != nil {
		return 0, 0, err
	}
	// An empty full space means db has no completion at all — also when
	// the emptiness comes from a pruned null's empty domain.
	if eng.TotalSize().Sign() == 0 {
		return 0, 0, nil
	}
	p := freshPartition(eng.Size(), 1, false)
	p.ranges[0].until = &want
	ctx := opts.context()
	if err := p.sweep(eng, ctx, 1, opts.progress(), opts.phases(), 0, nil); err != nil {
		return 0, 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	return p.ranges[0].t.n, eng.Size().Uint64(), nil
}

// MuDatabase builds the µ_k construction of Libkin's relative frequency
// (Section 7 of the paper), which the solver's Mu counts over: the
// uniform database over {1, …, k} carrying db's naïve table. db's own
// domains are ignored (its nulls need not have any — the Section 7
// setting).
func MuDatabase(db *core.Database, k int) (*core.Database, error) {
	if k < 1 {
		return nil, fmt.Errorf("count: µ_k needs k ≥ 1, got %d", k)
	}
	dom := make([]string, k)
	for i := range dom {
		dom[i] = strconv.Itoa(i + 1)
	}
	u := core.NewUniformDatabase(dom)
	for _, f := range db.Facts() {
		if err := u.AddFact(f.Rel, f.Args...); err != nil {
			return nil, err
		}
	}
	return u, nil
}
