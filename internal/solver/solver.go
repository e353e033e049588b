// Package solver implements the session layer of the library: a Solver
// owns the cross-call amortization state — the fingerprint-keyed result
// cache (moved here from internal/server) and its single-flight group —
// and hands out PreparedDB sessions that compile a database's canonical
// form, valuation-space geometry and per-query plans once, then answer
// any number of counting questions against them.
//
// The shape follows the workloads the paper family targets: the journal
// version of Arenas–Barceló–Monet (arXiv:2011.06330) and the
// approximation line of work both answer *many* queries and query
// variants against one incomplete database, which is exactly what a
// prepared session amortizes. Everything expensive — canonicalization
// (internal/fingerprint), plan construction (internal/plan), sweep-engine
// compilation (internal/sweep) — happens at Prepare/first-use time and is
// reused across calls; the HTTP service of internal/server is a thin
// adapter over this package.
package solver

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// Defaults for configuration fields left zero.
const (
	// DefaultCacheSize is the number of results the solver's LRU retains
	// when no explicit size is configured.
	DefaultCacheSize = 1024
)

// Config configures a Solver. The zero value applies the defaults; the
// functional options (WithWorkers, …) are the ergonomic way to populate
// it.
type Config struct {
	// Workers is the worker-pool width brute-force sweeps shard the
	// valuation space across; 0 means one worker per CPU, 1 forces serial
	// sweeps.
	Workers int

	// MaxValuations is the brute-force guard: the hard cap on the size of
	// the (post-pruning) valuation space a sweep may enumerate. 0 means
	// count.DefaultMaxValuations.
	MaxValuations int64

	// CacheSize is the number of results the fingerprint-keyed LRU
	// retains; 0 means DefaultCacheSize, negative disables caching
	// (concurrent identical calls still share one computation). The text
	// memo (see PrepareText) has the same bound.
	CacheSize int
}

// Option is a functional configuration option for NewSolver.
type Option func(*Config)

// WithWorkers sets the worker-pool width for brute-force sweeps (0 = one
// worker per CPU, 1 = serial).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithMaxValuations sets the brute-force guard: the largest (post-pruning)
// valuation space a sweep may enumerate.
func WithMaxValuations(n int64) Option { return func(c *Config) { c.MaxValuations = n } }

// WithCacheSize sets the capacity of the solver's fingerprint-keyed
// result cache (negative disables caching).
func WithCacheSize(n int) Option { return func(c *Config) { c.CacheSize = n } }

// Solver is a counting session factory: it owns the result cache and the
// single-flight deduplication shared by every database prepared through
// it. A Solver is safe for concurrent use.
type Solver struct {
	cfg Config
	// planning is the configuration's normalized planning options: calls
	// planned under exactly these use the plain cache keys.
	planning plan.Options
	cache    *resultCache
	flight   *flightGroup
	// texts is the text memo: the SHA-256 of a database text → the digest
	// of its canonical form (text.go).
	texts *lru[fingerprint.Digest]
	// forms is the query-form memo: a query's as-written encoding → its
	// canonical form (text.go).
	forms *lru[string]

	hits, misses, computations, shared atomic.Int64

	// Write counters (the incremental-recount path).
	mutations, plansInvalidated, factorsReused atomic.Int64
}

// NewSolver returns a Solver configured by the given options.
func NewSolver(opts ...Option) *Solver {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return NewSolverConfig(cfg)
}

// NewSolverConfig is NewSolver over an explicit Config (the constructor
// the HTTP service uses).
func NewSolverConfig(cfg Config) *Solver {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	return &Solver{
		cfg:      cfg,
		planning: count.PlanOptions(&count.Options{MaxValuations: cfg.MaxValuations}),
		cache:    newResultCache(size),
		flight:   newFlightGroup(),
		texts:    newLRU[fingerprint.Digest](size),
		forms:    newLRU[string](queryFormMemoSize),
	}
}

// Config returns the solver's configuration.
func (s *Solver) Config() Config { return s.cfg }

// Metrics is a snapshot of the solver's cache and deduplication counters.
type Metrics struct {
	// CacheEntries is the number of results currently retained.
	CacheEntries int
	// TextEntries is the number of database texts whose canonical digest
	// the text memo retains.
	TextEntries int
	// CacheHits and CacheMisses count result-cache lookups.
	CacheHits, CacheMisses int64
	// Computations counts actual evaluations — cache hits and
	// single-flight followers do not increment it.
	Computations int64
	// FlightShared counts calls that attached to an identical in-flight
	// computation instead of starting their own.
	FlightShared int64
	// Mutations counts the database mutations prepared sessions have
	// caught up with (facts added or removed, domains extended).
	Mutations int64
	// PlansInvalidated counts cached plans dropped because the database
	// version advanced: a write empties its session's plan cache.
	PlansInvalidated int64
	// PlansPatched is always zero: a write empties the session's plan
	// cache instead of patching its plans. It is kept for readers built
	// against the older metrics.
	PlansPatched int64
	// FactorsReused counts independent components of executed factorized
	// plans that took their count from a session factor memo instead of
	// being planned and counted again.
	FactorsReused int64
}

// Metrics returns a snapshot of the solver's counters.
func (s *Solver) Metrics() Metrics {
	return Metrics{
		CacheEntries:     s.cache.len(),
		TextEntries:      s.texts.len(),
		CacheHits:        s.hits.Load(),
		CacheMisses:      s.misses.Load(),
		Computations:     s.computations.Load(),
		FlightShared:     s.shared.Load(),
		Mutations:        s.mutations.Load(),
		PlansInvalidated: s.plansInvalidated.Load(),
		FactorsReused:    s.factorsReused.Load(),
	}
}

// countOptions builds the runtime counting options for one call: a copy
// of opts whose zero guard and worker width take the solver's, under
// ctx, or under opts.Context when ctx is nil.
func (s *Solver) countOptions(ctx context.Context, opts *count.Options) *count.Options {
	eff := &count.Options{}
	if opts != nil {
		*eff = *opts
	}
	if eff.MaxValuations == 0 {
		eff.MaxValuations = s.cfg.MaxValuations
	}
	if eff.Workers == 0 {
		eff.Workers = s.cfg.Workers
	}
	if ctx != nil {
		eff.Context = ctx
	}
	if eff.Context == nil {
		eff.Context = context.Background()
	}
	return eff
}

// planKey derives a call's planning options from its effective options
// and renders them as the suffix of every session cache key the call
// reads or writes: the result cache, the single-flight group, the plan
// cache and the factor memo. The suffix is empty when the options equal
// the solver's own, so default calls keep their plain keys. A count is
// exact under any planning options, but whether the guard admits the
// call and what its plan records are not, so entries never cross
// options: a tightened guard misses and fails, and a loosened guard's
// success or an engine variant's plan stays under its own key.
func (s *Solver) planKey(eff *count.Options) (plan.Options, string) {
	po := count.PlanOptions(eff)
	if po == s.planning {
		return po, ""
	}
	return po, fmt.Sprintf("\x00%+v", po)
}
