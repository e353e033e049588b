package count

import (
	"fmt"
	"math/big"
	"strconv"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// This file implements the certainty-refinement semantics the counting
// problems support: the classical certain/possible decision problems, and
// the relative-frequency measure µ_k(q, D) of Libkin's 0–1-law framework
// discussed in Section 7 of the paper.

// IsCertain reports whether q holds in EVERY completion of db (the problem
// Certainty(q) for Boolean queries). It enumerates valuations on the
// compiled sweep engine with early exit (and relevant-null pruning, since
// the verdict is constant across the factored-out nulls) and is guarded
// like the brute-force counters; for the tractable Table 1 cells,
// comparing CountValuations against the total is the polynomial route.
func IsCertain(db *core.Database, q cq.Query, opts *Options) (bool, error) {
	sat, visited, err := sweepUntil(db, q, opts, false)
	if err != nil {
		return false, err
	}
	// A database with zero valuations (an empty domain) has no completion;
	// by the usual convention every query is then (vacuously) certain.
	if !visited {
		return true, nil
	}
	return sat, nil
}

// IsPossible reports whether q holds in SOME completion of db, with early
// exit.
func IsPossible(db *core.Database, q cq.Query, opts *Options) (bool, error) {
	sat, visited, err := sweepUntil(db, q, opts, true)
	if err != nil {
		return false, err
	}
	if !visited {
		return false, nil
	}
	return sat, nil
}

// sweepUntil sweeps the enumerated space serially until a valuation whose
// verdict is want is found, passing over satisfied witness blocks whole.
// It returns whether the last inspected verdict equals want (sat), and
// whether the full space holds any valuation at all (visited).
func sweepUntil(db *core.Database, q cq.Query, opts *Options, want bool) (sat, visited bool, err error) {
	eng, err := compileGuarded(db, q, sweep.ModeValuations, opts)
	if err != nil {
		return false, false, err
	}
	// An empty full space means db has no completion at all — also when
	// the emptiness comes from a pruned null's empty domain.
	if eng.TotalSize().Sign() == 0 {
		return false, false, nil
	}
	sat = !want
	err = sweepSharded(eng, opts.context(), 1, opts.progress(), opts.phases(), func(_ int, cur *sweep.Cursor, rest int64) int64 {
		var span int64
		if sat, span = cur.MatchSpan(rest); sat == want {
			return 0
		}
		return span
	})
	if err != nil {
		return false, false, err
	}
	return sat, true, nil
}

// MuDatabase builds the µ_k construction shared by MuK and the solver's
// session Mu: the uniform database over {1, …, k} carrying db's naïve
// table. db's own domains are ignored (its nulls need not have any — the
// Section 7 setting).
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

// MuK computes Libkin's relative frequency µ_k(q, T) (Section 7 of the
// paper): the fraction of valuations over the uniform domain {1, …, k}
// whose completion satisfies q. The domains attached to db are ignored —
// only its naïve table T is used. For generic monotone queries, µ_k tends
// to 0 or 1 as k → ∞ (Libkin's 0–1 law); the experiment suite demonstrates
// both limits.
//
// MuK uses the exact counting dispatcher, so tractable queries avoid
// enumeration entirely.
func MuK(db *core.Database, q cq.Query, k int, opts *Options) (*big.Rat, error) {
	u, err := MuDatabase(db, k)
	if err != nil {
		return nil, err
	}
	sat, _, err := CountValuations(u, q, opts)
	if err != nil {
		return nil, err
	}
	total, err := u.NumValuations()
	if err != nil {
		return nil, err
	}
	if total.Sign() == 0 {
		return nil, fmt.Errorf("count: µ_k undefined for a database without valuations")
	}
	return new(big.Rat).SetFrac(sat, total), nil
}
