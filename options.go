package incompletedb

import (
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// Option is a functional configuration option for NewSolver.
type Option = solver.Option

// WithWorkers sets the worker-pool width brute-force sweeps shard the
// valuation space across (0 = one worker per CPU, 1 = serial). Parallel
// results are bit-identical to serial ones.
func WithWorkers(n int) Option { return solver.WithWorkers(n) }

// WithMaxValuations sets the brute-force guard: the largest (post-pruning)
// valuation space a sweep may enumerate before the solver refuses and
// suggests an estimator. 0 means the package default.
func WithMaxValuations(n int64) Option { return solver.WithMaxValuations(n) }

// WithCacheSize sets the capacity of the solver's fingerprint-keyed
// result cache; negative disables caching, 0 means the package default.
func WithCacheSize(n int) Option { return solver.WithCacheSize(n) }

// CountOptions configures a single counting call through the *With
// methods of PreparedDB (and Solver.Mu): the brute-force guard
// (MaxValuations), the worker-pool width (Workers; 0 means one worker
// per CPU), an optional Progress hook, and the rest of the caller's
// knobs. The method's ctx argument cancels the call; Context is read
// only when that ctx is nil. A zero guard or worker width inherits the
// solver's configuration. A call whose guard or engine variant differs
// from the solver's reads and writes the session caches under keys of
// its own.
type CountOptions = count.Options
