package incompletedb

// The session-centric counting API. A Solver owns the cross-call
// amortization state — the fingerprint-keyed result cache and its
// single-flight deduplication — and Prepare turns a database into a
// counting session that compiles everything expensive once:
//
//	s := incompletedb.NewSolver(incompletedb.WithWorkers(8))
//	pdb, err := s.Prepare(db)      // canonical form + geometry, once
//	res, err := pdb.Count(ctx, q, incompletedb.Valuations)
//	cert, err := pdb.Certain(ctx, q)
//	est, err := pdb.Estimate(ctx, q, 0.05, 0.05, rng)
//	for inst, err := range pdb.Completions(ctx, q) { ... }
//
// Prepared sessions cache compiled plans per (canonical query, kind) —
// each plan embeds its compiled sweep engine — and route every count
// through the solver's result cache, so answering many queries (or the
// same query over isomorphic databases) against one prepared database is
// dramatically cheaper than preparing each call afresh. The README's
// migration table maps the removed free functions onto sessions.

import (
	"github.com/incompletedb/incompletedb/internal/solver"
)

type (
	// Solver is a counting session factory: it owns the result cache and
	// single-flight deduplication shared by every database prepared
	// through it. Create one with NewSolver; it is safe for concurrent
	// use.
	Solver = solver.Solver

	// PreparedDB is a counting session over one incomplete database,
	// created by Solver.Prepare: canonicalization, valuation-space
	// geometry and per-query plan compilation happen once and are reused
	// by every Count/Certain/Possible/Estimate/Mu/Completions call.
	PreparedDB = solver.PreparedDB

	// SolverConfig is the explicit configuration behind the functional
	// options of NewSolver.
	SolverConfig = solver.Config

	// SolverMetrics is a snapshot of a solver's cache and deduplication
	// counters.
	SolverMetrics = solver.Metrics
)

// NewSolver returns a counting solver configured by the given options:
//
//	s := incompletedb.NewSolver(
//		incompletedb.WithWorkers(8),
//		incompletedb.WithMaxValuations(1<<24),
//		incompletedb.WithCacheSize(4096),
//	)
func NewSolver(opts ...Option) *Solver {
	return solver.NewSolver(opts...)
}
