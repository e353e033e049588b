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
// enumerated space is sharded across a worker pool (Options.Workers);
// parallel results are bit-identical to a serial sweep.
//
// All counts are exact big integers.
package count

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"strings"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// DefaultMaxValuations is the default guard for brute-force enumeration.
const DefaultMaxValuations = plan.DefaultMaxValuations

// DefaultMaxCylinders is the default cap on the cylinder
// inclusion–exclusion route of the dispatcher.
const DefaultMaxCylinders = plan.DefaultMaxCylinders

// Options configures the counting functions.
type Options struct {
	// MaxValuations bounds the number of valuations brute-force
	// enumeration will visit; 0 means DefaultMaxValuations. The guard
	// applies to the space the sweep actually enumerates — after
	// relevant-null pruning, when it kicks in — so a query touching a
	// small part of a huge database can still be counted exactly.
	MaxValuations int64

	// MaxCylinders caps the cylinder inclusion–exclusion route the
	// dispatcher may plan (the 2^m subset enumeration): above this many
	// cylinders the route is rejected in favor of the sweep. 0 means
	// DefaultMaxCylinders; negative disables the route entirely.
	MaxCylinders int

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

	// FactorMemo, when non-nil, caches the counts of the independent
	// components of factorized plans (OpFactor/OpFactorUnion children)
	// across plan executions: the executor consults it before computing a
	// component and stores the raw component count afterwards. This is how
	// an incremental recount after a database delta re-sweeps only the
	// touched component — the memo (maintained by internal/solver)
	// invalidates exactly the components whose relations or nulls the
	// delta touched and serves the rest from cache.
	FactorMemo FactorMemo

	// rejectedPaths records, when set by the plan executor, why each fast
	// path did not apply (the plan node's rejected decision records), so
	// the brute-force guard can explain what was already tried instead of
	// suggesting it.
	rejectedPaths []string
}

// FactorMemo caches per-component counts of factorized plans. Lookup
// returns the cached count of component query q under the counting kind;
// Store records a freshly computed one. The returned big.Int must not be
// mutated by either side. Implementations decide validity: a stale entry
// must be dropped by the maintainer before the next execution.
type FactorMemo interface {
	LookupFactor(q cq.Query, kind classify.CountingKind) (*big.Int, bool)
	StoreFactor(q cq.Query, kind classify.CountingKind, count *big.Int)
}

// PlanOptions projects counting options onto the planner's, normalized:
// the one place a call's guard, cylinder cap and engine variant become
// the plan.Options its plans are built under.
func PlanOptions(o *Options) plan.Options {
	po := plan.Options{Compile: o.compileOptions()}
	if o != nil {
		po.MaxValuations, po.MaxCylinders = o.MaxValuations, o.MaxCylinders
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
	return sweepValuationsOnEngine(eng, opts)
}

// sweepValuationsOnEngine runs the sharded valuation count on an already
// compiled (and guarded) engine — the entry point of the plan executor,
// whose sweep nodes carry the engine the planner compiled.
func sweepValuationsOnEngine(eng *sweep.Engine, opts *Options) (*big.Int, error) {
	if ck := opts.checkpointer(); ck != nil && eng.Size().Sign() > 0 && ck.acquire() {
		return sweepValuationsCheckpointed(eng, opts, ck)
	}
	shards := shardCount(eng.Size(), opts)
	counts := make([]shardTally, shards)
	err := sweepSharded(eng, opts.context(), shards, opts.progress(), opts.phases(), func(shard int, cur *sweep.Cursor, rest int64) int64 {
		return counts[shard].leaf(cur, rest)
	})
	if err != nil {
		return nil, err
	}
	return foldTallies(counts, eng), nil
}

// leaf evaluates the cursor's leaf, tallies the valuations it accounts for
// when they satisfy the query, and returns their number: the visit of
// every valuation-count loop.
func (t *shardTally) leaf(cur *sweep.Cursor, rest int64) int64 {
	sat, span := cur.MatchSpan(rest)
	if sat {
		t.n += uint64(span)
	}
	return span
}

// sweepValuationsCheckpointed is the resumable variant: shard geometry
// and partial tallies come from the Checkpointer (restored from its
// resume state, fresh otherwise), every shard publishes its position and
// tally each stride, and — crucially — the final state is flushed even
// when the sweep is cancelled, so a drain-and-checkpoint shutdown loses
// no visited valuation. A shard stops only between leaves, and a leaf's
// span is counted whole, so the flush positions are exact.
func sweepValuationsCheckpointed(eng *sweep.Engine, opts *Options, ck *Checkpointer) (*big.Int, error) {
	st := ck.begin(eng, opts, false)
	counts := st.counts
	err := sweepShardedFrom(eng, opts.context(), st.bounds, st.starts, opts.progress(), opts.phases(), func(shard int, cur *sweep.Cursor, rest int64) int64 {
		t := &counts[shard]
		span := t.leaf(cur, rest)
		if t.checkpointed(span, ck.stride) {
			ck.publish(shard, t.next(st.starts[shard]), &t.n, nil)
		}
		return span
	})
	// Flush every shard's exact final state (all shard goroutines have
	// stopped): on success this records completion, on cancellation the
	// freshest resumable position.
	for i := range counts {
		ck.publish(i, counts[i].next(st.starts[i]), &counts[i].n, nil)
	}
	if err != nil {
		return nil, err
	}
	return foldTallies(counts, eng), nil
}

// BruteForceCompletions counts the distinct completions ν(db) of db with
// ν(db) ⊨ q by exhaustive enumeration with hashed deduplication, sharded
// across Options.Workers goroutines. Each shard deduplicates its own index
// range by the 128-bit completion hash (hash buckets compare exact
// canonical encodings, so a hash collision cannot corrupt the count); the
// shard tables are merged in index order at the end, so every distinct
// completion is evaluated at most once per shard and the result is
// bit-identical to a serial sweep. It fails if the valuation space exceeds
// the guard in opts or the context is cancelled.
func BruteForceCompletions(db *core.Database, q cq.Query, opts *Options) (*big.Int, error) {
	eng, err := compileGuarded(db, q, sweep.ModeCompletions, opts)
	if err != nil {
		return nil, err
	}
	return sweepCompletionsOnEngine(eng, opts)
}

// sweepCompletionsOnEngine runs the sharded completion-dedup count on an
// already compiled (and guarded) engine, counting the satisfying
// distinct completions.
func sweepCompletionsOnEngine(eng *sweep.Engine, opts *Options) (*big.Int, error) {
	merged, err := completionSweepOnEngine(eng, opts, false)
	if err != nil {
		return nil, err
	}
	count := int64(0)
	for _, e := range merged.order {
		if e.sat {
			count++
		}
	}
	return big.NewInt(count), nil
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
	out := make([]*core.Instance, 0, len(merged.order))
	for _, e := range merged.order {
		out = append(out, e.inst)
	}
	return out, nil
}

// bruteCompletionSweep runs the guarded, sharded completion-dedup sweep
// shared by BruteForceCompletions and EnumerateCompletions.
func bruteCompletionSweep(db *core.Database, q cq.Query, opts *Options, keepInstances bool) (*completionShard, error) {
	eng, err := compileGuarded(db, q, sweep.ModeCompletions, opts)
	if err != nil {
		return nil, err
	}
	return completionSweepOnEngine(eng, opts, keepInstances)
}

// completionSweepOnEngine is bruteCompletionSweep after compilation.
func completionSweepOnEngine(eng *sweep.Engine, opts *Options, keepInstances bool) (*completionShard, error) {
	if ck := opts.checkpointer(); ck != nil && !keepInstances && eng.Size().Sign() > 0 && ck.acquire() {
		return sweepCompletionsCheckpointed(eng, opts, ck)
	}
	shards := shardCount(eng.Size(), opts)
	perShard := make([]*completionShard, shards)
	for i := range perShard {
		perShard[i] = newSweepShard(eng, keepInstances, opts.phases())
	}
	err := sweepSharded(eng, opts.context(), shards, opts.progress(), opts.phases(), func(shard int, cur *sweep.Cursor, rest int64) int64 {
		return perShard[shard].visit(cur, rest)
	})
	releaseMemos(perShard...)
	if err != nil {
		return nil, err
	}
	return mergeCompletionShards(perShard), nil
}

// sweepCompletionsCheckpointed is the resumable completion-dedup sweep:
// each shard's dedup table is seeded from the restored checkpoint entries
// (so completions first seen before the interruption are neither
// re-evaluated nor double-counted), and each stride the shard publishes
// its position together with the entries first seen since the previous
// publish. The final flush after the sweep stops — success or
// cancellation — captures the exact frontier. A block the prefix memo
// skips is counted whole, so the published positions stay exact; the
// memo itself is not checkpointed, and a resumed shard starts a fresh
// one. Instances are never retained on this path (EnumerateCompletions
// runs un-checkpointed).
func sweepCompletionsCheckpointed(eng *sweep.Engine, opts *Options, ck *Checkpointer) (*completionShard, error) {
	st := ck.begin(eng, opts, true)
	perShard := make([]*completionShard, len(st.starts))
	for i := range perShard {
		perShard[i] = newSweepShard(eng, false, opts.phases())
		perShard[i].restore(st.entriesAt(i))
	}
	counts := st.counts
	err := sweepShardedFrom(eng, opts.context(), st.bounds, st.starts, opts.progress(), opts.phases(), func(shard int, cur *sweep.Cursor, rest int64) int64 {
		span := perShard[shard].visit(cur, rest)
		if t := &counts[shard]; t.checkpointed(span, ck.stride) {
			ck.publish(shard, t.next(st.starts[shard]), nil, perShard[shard].drainPending())
		}
		return span
	})
	releaseMemos(perShard...)
	for i := range counts {
		ck.publish(i, counts[i].next(st.starts[i]), nil, perShard[i].drainPending())
	}
	if err != nil {
		return nil, err
	}
	return mergeCompletionShards(perShard), nil
}
