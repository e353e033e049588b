// Package count implements the counting problems #Val(q) and #Comp(q) of
// the paper: guarded brute-force baselines that enumerate valuations (and
// deduplicate completions), and the paper's four polynomial-time algorithms
// for the tractable sides of the dichotomies of Table 1 (Theorems 3.6, 3.7,
// 3.9 and 4.6), together with an automatic dispatcher.
//
// The brute-force counters run on the compiled valuation-sweep engine of
// internal/sweep: the database is compiled once per sweep into an interned
// arena, the mixed-radix odometer is driven incrementally, completions are
// deduplicated by an incremental 128-bit set hash (with exact-encoding
// collision buckets), a prefix memo skips every block of valuations that
// can only repeat completions already seen, and — for #Val with syntactic
// queries — nulls occurring only in relations the query never mentions
// are factored out of the enumeration as a multiplicative term. The
// enumerated space is partitioned into contiguous ranges swept by at most
// Options.Workers goroutines, and a checkpointed, resumed or distributed
// sweep is the same partition with its ranges' state persisted (see
// partition.go); every way of running a sweep is bit-identical to a
// serial one.
//
// All counts are exact big integers.
package count

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"strings"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// DefaultMaxValuations is the default guard for brute-force enumeration.
const DefaultMaxValuations = plan.DefaultMaxValuations

// Options configures the counting functions.
type Options struct {
	// MaxValuations bounds the number of valuations brute-force
	// enumeration will visit; 0 means DefaultMaxValuations. The guard
	// applies to the space the sweep actually enumerates — after
	// relevant-null pruning, when it kicks in — so a query touching a
	// small part of a huge database can still be counted exactly.
	MaxValuations int64

	// Workers is the number of goroutines the brute-force counters shard
	// the valuation space across; 0 means runtime.NumCPU(), 1 forces a
	// serial sweep. Parallel results are identical to serial ones. With
	// Workers > 1 the query's Eval must be safe for concurrent use on
	// distinct instances (true of all queries in this module; relevant
	// only for user-supplied cq.Func queries).
	Workers int

	// Context, when non-nil, cancels long brute-force sweeps: the
	// counters return its error shortly after it is done.
	Context context.Context

	// Progress, when non-nil, receives shard-completion updates from the
	// brute-force sweepers: Progress(0, total) is called once when a sweep
	// starts, and Progress(done, total) again each time one of the total
	// shards finishes cleanly. Calls are serialized across workers and
	// done is non-decreasing; it reaches total only when the sweep ran to
	// completion without cancellation. A fraction done/total is therefore
	// a faithful progress report for the whole valuation space, since
	// shards partition it into near-equal contiguous slices.
	Progress func(done, total int)

	// Checkpoint, when non-nil, makes the brute-force sweep resumable:
	// shards periodically publish their odometer position and partial
	// accumulators into it, Snapshot serializes the state, and a new
	// sweep created with the snapshot as its resume state continues where
	// the old one stopped, bit-identical to an uninterrupted run. The
	// Checkpointer binds to the first sweep node executed under these
	// options; see NewCheckpointer.
	Checkpoint *Checkpointer

	// DisableBitsets pins the scalar membership path of the sweep engine:
	// no bitset-compiled matching plan is built. SyntacticOrder pins the
	// query's own (syntactic) atom order instead of the engine's
	// cost-driven most-bound-first reordering. Counts are identical
	// either way. These escape hatches are library-only: the lockstep
	// tests and the benchmark's reference sweeps set them, and a session
	// call that sets one caches its results and plans under keys of its
	// own (see internal/solver).
	DisableBitsets bool
	SyntacticOrder bool

	// Phases, when non-nil, receives sampled per-phase wall-time
	// estimates (step/match/dedup) from the brute-force sweeps run under
	// these options. See PhaseTimes.
	Phases *PhaseTimes

	// FactorMemo, when non-nil, serves and receives the counts of the
	// parts of a factorized plan (OpFactor/OpFactorUnion children) whose
	// nodes carry a memo key: the executor asks about each one once per
	// execution, takes a count the memo holds instead of running the
	// part, and stores the count of each part it runs. The planner takes
	// only descriptions from the same memo (plan.Memo).
	FactorMemo FactorMemo

	// rejectedPaths records, when set by the plan executor, why each fast
	// path did not apply (the plan node's rejected decision records), so
	// the brute-force guard can explain what was already tried instead of
	// suggesting it.
	rejectedPaths []string
}

// FactorMemo is the executor's side of a factor memo; plan.Memo is the
// side the planner takes descriptions from. LookupFactor returns the #Val
// count stored under key, at the valuation total of the database being
// executed. StoreFactor records the count of factorization part n, just
// computed over that database, under the key the planner computed for it
// (n.MemoKey), so a part that missed is keyed once. n is the part's plan
// node, with its payloads unless it is a description taken from the
// memo; an implementation keeps only n.Description(). A count must not be
// mutated by either side. Validity is the key's job: a key names
// everything a part's count and description depend on, so a lookup never
// finds those of other content.
type FactorMemo interface {
	LookupFactor(key string) (*big.Int, bool)
	StoreFactor(key string, n *plan.Node, count *big.Int)
}

// PlanOptions projects counting options onto the planner's, normalized:
// the one place a call's guard and engine variant become the
// plan.Options its plans are built under.
func PlanOptions(o *Options) plan.Options {
	po := plan.Options{Compile: o.compileOptions()}
	if o != nil {
		po.MaxValuations = o.MaxValuations
	}
	return po.Normalized()
}

// compileOptions projects the counting options onto the sweep compiler's.
func (o *Options) compileOptions() sweep.CompileOptions {
	if o == nil {
		return sweep.CompileOptions{}
	}
	return sweep.CompileOptions{DisableBitsets: o.DisableBitsets, SyntacticOrder: o.SyntacticOrder}
}

func (o *Options) phases() *PhaseTimes {
	if o == nil {
		return nil
	}
	return o.Phases
}

// defaultMaxValuations is the default guard as a shared big.Int, so the
// hot helper below does not allocate on every call. It must never be
// mutated.
var defaultMaxValuations = big.NewInt(DefaultMaxValuations)

func (o *Options) maxValuations() *big.Int {
	if o == nil || o.MaxValuations <= 0 {
		return defaultMaxValuations
	}
	return big.NewInt(o.MaxValuations)
}

func (o *Options) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

func (o *Options) context() context.Context {
	if o == nil || o.Context == nil {
		return context.Background()
	}
	return o.Context
}

func (o *Options) progress() func(done, total int) {
	if o == nil {
		return nil
	}
	return o.Progress
}

func (o *Options) checkpointer() *Checkpointer {
	if o == nil {
		return nil
	}
	return o.Checkpoint
}

// withRejected returns a copy of o carrying the dispatcher's notes on why
// the fast paths were not applicable.
func (o *Options) withRejected(notes []string) *Options {
	c := &Options{}
	if o != nil {
		*c = *o
	}
	c.rejectedPaths = notes
	return c
}

// compileGuarded compiles the sweep engine for db and q and applies the
// brute-force guard to the size of the space the engine will actually
// enumerate (after relevant-null pruning, in ModeValuations).
func compileGuarded(db *core.Database, q cq.Query, mode sweep.Mode, opts *Options) (*sweep.Engine, error) {
	eng, err := sweep.CompileWith(db, q, mode, opts.compileOptions())
	if err != nil {
		return nil, err
	}
	if err := guardEngine(eng, opts); err != nil {
		return nil, err
	}
	return eng, nil
}

func guardEngine(eng *sweep.Engine, opts *Options) error {
	max := opts.maxValuations()
	size := eng.Size()
	if size.Cmp(max) <= 0 {
		return nil
	}
	hint := "use an exact algorithm or an estimator"
	if opts != nil && len(opts.rejectedPaths) > 0 {
		hint = "no fast path applies — " + strings.Join(opts.rejectedPaths, "; ") +
			" — raise MaxValuations, shrink the instance, or use an estimator"
	}
	if eng.Pruned() > 0 {
		return fmt.Errorf("count: %v relevant valuations (of %v total; %d nulls outside the query's relations were factored out) exceed the brute-force guard %v; %s",
			size, eng.TotalSize(), eng.Pruned(), max, hint)
	}
	return fmt.Errorf("count: %v valuations exceed the brute-force guard %v; %s", size, max, hint)
}

// BruteForceValuations counts the valuations ν of db with ν(db) ⊨ q by
// exhaustive enumeration on the compiled sweep engine, sharded across
// Options.Workers goroutines. Nulls irrelevant to a syntactic query are
// factored out of the enumeration (their domains multiply the result), so
// the guard and the running time depend only on the relevant part of the
// space. It fails if the enumerated space exceeds the guard in opts or the
// context in opts is cancelled.
func BruteForceValuations(db *core.Database, q cq.Query, opts *Options) (*big.Int, error) {
	eng, err := compileGuarded(db, q, sweep.ModeValuations, opts)
	if err != nil {
		return nil, err
	}
	n, _, err := sweepEngine(eng, opts, false)
	return n, err
}

// sweepEngine runs the brute-force sweep of an already compiled (and
// guarded) engine — also the entry point of the plan executor, whose
// sweep nodes carry the engine the planner compiled — and returns its
// count and, on #Comp, the distinct completions in first-seen order
// (their instances too when keep is set). The partition is fresh
// geometry, or the resume state of the Checkpointer bound to opts when
// that parses against eng; a sweep that keeps instances runs
// un-checkpointed. Under a Checkpointer every range publishes its
// position and accumulator each stride, and — crucially — every range's
// final state is flushed even when the sweep is cancelled, so a
// drain-and-checkpoint shutdown loses no visited valuation. Fresh or
// resumed, at most Options.Workers ranges are swept at once.
func sweepEngine(eng *sweep.Engine, opts *Options, keep bool) (*big.Int, []*compEntry, error) {
	size := eng.Size()
	var (
		p      *Partition
		pub    func(int, ShardCheckpoint) error
		stride int64
	)
	if ck := opts.checkpointer(); ck != nil && !keep && size.Sign() > 0 && ck.acquire() {
		p, pub, stride = ck.begin(eng, opts), ck.publish, ck.stride
	} else {
		p = freshPartition(size, shardCount(size, opts), eng.Mode() == sweep.ModeCompletions)
		p.keep = keep
	}
	ctx := opts.context()
	err := p.sweep(eng, ctx, opts.workers(), opts.progress(), opts.phases(), stride, pub)
	if pub != nil {
		// Every range has stopped: on success this records completion, on
		// cancellation the freshest resumable position. A Checkpointer's
		// publish never fails.
		for i := range p.ranges {
			_ = pub(i, p.ranges[i].state())
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, nil, err
	}
	n, merged := p.fold(eng)
	return n, merged, nil
}

// BruteForceCompletions counts the distinct completions ν(db) of db with
// ν(db) ⊨ q by exhaustive enumeration with hashed deduplication, sharded
// across Options.Workers goroutines. Each range deduplicates its own index
// range by the 128-bit completion hash (hash buckets compare exact
// canonical encodings, so a hash collision cannot corrupt the count); the
// range tables are merged in index order at the end, so every distinct
// completion is evaluated at most once per range and the result is
// bit-identical to a serial sweep. It fails if the valuation space exceeds
// the guard in opts or the context is cancelled.
func BruteForceCompletions(db *core.Database, q cq.Query, opts *Options) (*big.Int, error) {
	eng, err := compileGuarded(db, q, sweep.ModeCompletions, opts)
	if err != nil {
		return nil, err
	}
	n, _, err := sweepEngine(eng, opts, false)
	return n, err
}

// BruteForceAllCompletions counts all distinct completions of db.
func BruteForceAllCompletions(db *core.Database, opts *Options) (*big.Int, error) {
	return BruteForceCompletions(db, cq.Tautology{}, opts)
}

// EnumerateCompletions returns every distinct completion of db (for
// debugging and tests), in first-seen enumeration order — identical for
// serial and parallel sweeps; it fails when the guard is exceeded.
func EnumerateCompletions(db *core.Database, opts *Options) ([]*core.Instance, error) {
	merged, err := bruteCompletionSweep(db, cq.Tautology{}, opts, true)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Instance, 0, len(merged))
	for _, e := range merged {
		out = append(out, e.inst)
	}
	return out, nil
}

// bruteCompletionSweep runs the guarded completion-dedup sweep and returns
// the distinct completions in first-seen order.
func bruteCompletionSweep(db *core.Database, q cq.Query, opts *Options, keepInstances bool) ([]*compEntry, error) {
	eng, err := compileGuarded(db, q, sweep.ModeCompletions, opts)
	if err != nil {
		return nil, err
	}
	_, merged, err := sweepEngine(eng, opts, keepInstances)
	return merged, err
}
