package count

import (
	"context"
	"fmt"
	"math/big"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// The sharded valuation-sweep driver behind the brute-force counters: the
// engine's enumerated space is split into one contiguous, index-ordered
// shard per worker, and each worker sweeps its shard with its own cursor
// and shard-local state. Because shards partition [0, Size) in index
// order, per-shard results can always be merged back into exactly the
// answer a serial sweep would produce.

// serialCutoff is the space size below which sharding is not worth the
// goroutine and merge overhead and the sweep runs on the calling
// goroutine.
const serialCutoff = 4096

// cancelCheckInterval is the number of valuations a worker visits between
// polls of the cancellation context.
const cancelCheckInterval = 1024

// shardCount returns how many shards a sweep over a space of the given
// size uses under opts: 1 when a single worker is requested, never more
// than the space size, and — only when Workers is left at its default — 1
// for spaces too small to repay the goroutine and merge overhead. An
// explicit Workers > 1 always shards, so tests can force the parallel
// path on small spaces.
func shardCount(size *big.Int, opts *Options) int {
	explicit := opts != nil && opts.Workers > 0
	w := opts.workers()
	if w <= 1 {
		return 1
	}
	if !explicit && size.Cmp(big.NewInt(serialCutoff)) <= 0 {
		return 1
	}
	if size.Sign() > 0 && size.IsInt64() && size.Int64() < int64(w) {
		return int(size.Int64())
	}
	return w
}

// shardBounds splits [0, size) into shards+1 contiguous boundaries
// b[0]=0 ≤ b[1] ≤ … ≤ b[shards]=size, with all shard lengths within one of
// each other.
func shardBounds(size *big.Int, shards int) []*big.Int {
	chunk, rem := new(big.Int).QuoRem(size, big.NewInt(int64(shards)), new(big.Int))
	bounds := make([]*big.Int, shards+1)
	bounds[0] = big.NewInt(0)
	one := big.NewInt(1)
	for i := 1; i <= shards; i++ {
		width := new(big.Int).Set(chunk)
		if int64(i) <= rem.Int64() {
			width.Add(width, one)
		}
		bounds[i] = new(big.Int).Add(bounds[i-1], width)
	}
	return bounds
}

// sweepSharded enumerates the engine's whole enumerated space across the
// given number of shards, calling visit(shard, cur, rest) for every leaf
// with the shard's cursor positioned on it (see sweepShard for the span
// contract). visit runs concurrently across shards and must only touch
// state owned by its shard; the cursor is repositioned between calls
// within one shard. A zero return from visit stops that shard only.
// sweepSharded returns the context's error if the sweep was cancelled, in
// which case the per-shard state is incomplete and must be discarded.
//
// progress, when non-nil, is notified as described by Options.Progress:
// once with (0, shards) before enumeration starts, then with the new
// completed-shard count each time a shard finishes without the sweep
// having been cancelled. A progressTracker serializes the calls.
func sweepSharded(eng *sweep.Engine, ctx context.Context, shards int, progress func(done, total int), phases *PhaseTimes, visit visitFunc) error {
	size := eng.Size()
	if size.Sign() == 0 {
		tracker := newProgressTracker(progress, shards)
		tracker.finishAll(ctx)
		return ctx.Err()
	}
	bounds := shardBounds(size, shards)
	return sweepShardedFrom(eng, ctx, bounds, bounds[:shards], progress, phases, visit)
}

// sweepModeLabel names the engine's mode for the pprof labels the shard
// goroutines run under.
func sweepModeLabel(eng *sweep.Engine) string {
	switch eng.Mode() {
	case sweep.ModeCompletions:
		return "completions"
	case sweep.ModeSample:
		return "sample"
	default:
		return "valuations"
	}
}

// sweepShardedFrom is sweepSharded over explicit shard geometry: bounds
// has len(starts)+1 entries delimiting the shards' full intervals, and
// starts[i] ∈ [bounds[i], bounds[i+1]] is where shard i begins — equal to
// bounds[i] on a fresh sweep, past it when resuming from a checkpoint (a
// shard whose start has reached its upper bound is already complete and
// is not re-entered).
func sweepShardedFrom(eng *sweep.Engine, ctx context.Context, bounds, starts []*big.Int, progress func(done, total int), phases *PhaseTimes, visit visitFunc) error {
	shards := len(starts)
	tracker := newProgressTracker(progress, shards)
	if shards == 1 {
		if err := sweepShard(eng, ctx, starts[0], bounds[1], 0, phases, visit); err != nil {
			return err
		}
		tracker.shardDone(ctx)
		return ctx.Err()
	}
	errs := make([]error, shards)
	mode := sweepModeLabel(eng)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Label the shard goroutine so pprof profiles break the
			// sweep down by shard and mode.
			pprof.Do(ctx, pprof.Labels("sweep_shard", strconv.Itoa(w), "sweep_mode", mode), func(ctx context.Context) {
				errs[w] = sweepShard(eng, ctx, starts[w], bounds[w+1], w, phases, visit)
			})
			if errs[w] == nil {
				tracker.shardDone(ctx)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// progressTracker serializes shard-completion notifications and enforces
// the Options.Progress contract (monotone done, no completions reported
// after cancellation).
type progressTracker struct {
	mu    sync.Mutex
	fn    func(done, total int)
	done  int
	total int
}

func newProgressTracker(fn func(done, total int), total int) *progressTracker {
	t := &progressTracker{fn: fn, total: total}
	if fn != nil {
		fn(0, total)
	}
	return t
}

// shardDone records one completed shard and reports the new count, unless
// the sweep was cancelled — a cancelled sweep's results are discarded, so
// reporting further progress for it would be misleading.
func (t *progressTracker) shardDone(ctx context.Context) {
	if t.fn == nil || ctx.Err() != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	t.fn(t.done, t.total)
}

// finishAll reports the sweep complete in one step (used for empty spaces,
// where there is nothing to enumerate).
func (t *progressTracker) finishAll(ctx context.Context) {
	if t.fn == nil || ctx.Err() != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = t.total
	t.fn(t.done, t.total)
}

// visitFunc is one leaf of a shard loop: it runs with the shard's cursor
// on the leaf and rest, the valuations left in the shard counting this
// one, and returns how many valuations the leaf accounts for, or 0 to stop
// the shard. A count above 1 must be the span MatchSpan just granted, so
// that Cursor.Pass can resume past the leaf's witness block.
type visitFunc func(shard int, cur *sweep.Cursor, rest int64) int64

// sweepShard sweeps one contiguous index interval with a fresh cursor,
// advancing by the spans visit returns — one valuation at a time, or past
// a satisfied leaf's witness block — and polling ctx every
// cancelCheckInterval leaves. A Seek error (an invalid interval) must
// propagate: swallowing it would turn a partial sweep into a silent
// undercount. With phases non-nil, one leaf in phaseSampleStride is timed
// and the scaled estimate accumulated: the visit goes to the dedup phase
// on completion sweeps (where the visit is the dedup probe — the rare
// first-sight query evaluation inside it is timed separately by the
// completion shard) and to the match phase otherwise. An interval wider
// than an int64 is an error: the brute-force guard and SweepShardRange's
// width check keep every real one narrower, which is what lets a shard
// tally fit one uint64.
func sweepShard(eng *sweep.Engine, ctx context.Context, lo, hi *big.Int, shard int, phases *PhaseTimes, visit visitFunc) error {
	n := new(big.Int).Sub(hi, lo)
	if n.Sign() == 0 {
		return nil
	}
	if !n.IsInt64() {
		return fmt.Errorf("count: shard interval [%v, %v) is wider than an int64", lo, hi)
	}
	cur := eng.NewCursor()
	if err := cur.Seek(lo); err != nil {
		return err
	}
	dedupVisits := eng.Mode() == sweep.ModeCompletions
	sinceSample := 0
	sinceCheck := 0
	for remaining := n.Int64(); ; {
		if sinceCheck++; sinceCheck >= cancelCheckInterval {
			sinceCheck = 0
			if ctx.Err() != nil {
				return nil
			}
		}
		if phases != nil {
			if sinceSample++; sinceSample >= phaseSampleStride {
				sinceSample = 0
				t0 := time.Now()
				span := visit(shard, cur, remaining)
				d := time.Since(t0)
				if dedupVisits {
					phases.addDedup(d, phaseSampleStride)
				} else {
					phases.addMatch(d, phaseSampleStride)
				}
				if span == 0 {
					return nil
				}
				if remaining -= span; remaining <= 0 {
					return nil
				}
				t0 = time.Now()
				cur.Pass(span)
				phases.addStep(time.Since(t0), phaseSampleStride)
				continue
			}
		}
		span := visit(shard, cur, remaining)
		if span == 0 {
			return nil
		}
		if remaining -= span; remaining <= 0 {
			return nil
		}
		cur.Pass(span)
	}
}

// compEntry is one distinct completion seen by a shard: its 128-bit set
// hash, its exact snapshot (what dedup compares on every hash hit, so a
// hash collision cannot corrupt the count), its query verdict, and — when
// retained — the materialized instance.
type compEntry struct {
	hash sweep.Hash128
	snap *sweep.Snapshot
	sat  bool
	inst *core.Instance // nil unless instances are retained
}

// completionShard is the shard-local state of a sweep that deduplicates
// completions: the distinct completions in first-seen order and an
// open-addressed linear-probe table over them keyed directly by the
// 128-bit completion sum — the sum is already a uniform hash, so probing
// needs no re-hashing and the common repeat visit costs one table load
// plus one exact snapshot comparison. A genuine 128-bit collision simply
// extends the probe chain; the snapshot comparison keeps it exact.
type completionShard struct {
	order []*compEntry
	table []int32 // linear-probe index into order; -1 is empty
	mask  uint32
	keep  bool

	// lastGen is the cursor SetGen observed by the previous visit: an
	// equal generation proves the step moved only duplicated facts, so
	// the completion is the one just recorded and the visit is free.
	lastGen uint64

	// snapBuf is the canonical-encoding scratch reused across this
	// shard's first-sight snapshots.
	snapBuf []uint32

	// timing, when non-nil, receives the (rare) first-sight query
	// evaluation times — the match phase of a completion sweep.
	timing *PhaseTimes

	// pendingFrom is the index in order up to which entries have been
	// drained into a checkpoint (see drainPending); entries before it are
	// already persisted.
	pendingFrom int
}

func newCompletionShard(keepInstances bool) *completionShard {
	s := &completionShard{keep: keepInstances}
	s.initTable(64)
	return s
}

func (s *completionShard) initTable(size int) {
	s.table = make([]int32, size)
	for i := range s.table {
		s.table[i] = -1
	}
	s.mask = uint32(size - 1)
}

func (s *completionShard) growTable() {
	s.initTable(2 * len(s.table))
	for j, e := range s.order {
		i := uint32(e.hash.Lo) & s.mask
		for s.table[i] >= 0 {
			i = (i + 1) & s.mask
		}
		s.table[i] = int32(j)
	}
}

// visit records the cursor's current completion, snapshotting it and
// evaluating the query only the first time the completion is seen within
// this shard. A repeat visit whose step changed no distinct fact value is
// skipped outright via the cursor's SetGen; other repeats cost one probe
// and one exact comparison against the cursor's incremental hashes.
func (s *completionShard) visit(cur *sweep.Cursor) {
	g := cur.SetGen()
	if g == s.lastGen {
		return
	}
	s.lastGen = g
	h := cur.CompletionHash()
	i := uint32(h.Lo) & s.mask
	for s.table[i] >= 0 {
		m := s.order[s.table[i]]
		if m.hash == h && cur.EqualsSnapshot(m.snap) {
			return
		}
		i = (i + 1) & s.mask
	}
	var snap *sweep.Snapshot
	snap, s.snapBuf = cur.SnapshotUsing(s.snapBuf)
	e := &compEntry{hash: h, snap: snap}
	if s.keep {
		e.inst = cur.Instance()
	}
	if s.timing != nil {
		t0 := time.Now()
		e.sat = cur.MatchesUsing(e.inst)
		s.timing.addMatch(time.Since(t0), 1)
	} else {
		e.sat = cur.MatchesUsing(e.inst)
	}
	s.table[i] = int32(len(s.order))
	s.order = append(s.order, e)
	if 2*len(s.order) > len(s.table) {
		s.growTable()
	}
}

// add inserts an existing entry unless an equal completion (by canonical
// encoding) is already present — the merge and restore path.
func (s *completionShard) add(e *compEntry) {
	i := uint32(e.hash.Lo) & s.mask
	for s.table[i] >= 0 {
		m := s.order[s.table[i]]
		if m.hash == e.hash && slices.Equal(m.snap.Canonical, e.snap.Canonical) {
			return
		}
		i = (i + 1) & s.mask
	}
	s.table[i] = int32(len(s.order))
	s.order = append(s.order, e)
	if 2*len(s.order) > len(s.table) {
		s.growTable()
	}
}

// restore seeds the shard's dedup state with entries rehydrated from a
// checkpoint, marking them as already drained — a resumed shard republishes
// only what it sees after the resume point.
func (s *completionShard) restore(entries []*compEntry) {
	for _, e := range entries {
		s.add(e)
	}
	s.pendingFrom = len(s.order)
}

// drainPending serializes the entries first seen since the previous drain
// and advances the watermark. Called only from the shard's own goroutine
// (or after all shards stopped), like every other completionShard method.
func (s *completionShard) drainPending() []CompletionRecord {
	pending := s.order[s.pendingFrom:]
	if len(pending) == 0 {
		return nil
	}
	recs := make([]CompletionRecord, len(pending))
	for i, e := range pending {
		recs[i] = recordOf(e)
	}
	s.pendingFrom = len(s.order)
	return recs
}

// mergeCompletionShards folds the shards together in shard order (= index
// order, since shards are contiguous), keeping each completion's
// first-seen occurrence. The result is identical to what one serial sweep
// would have produced.
func mergeCompletionShards(shards []*completionShard) *completionShard {
	if len(shards) == 1 {
		return shards[0]
	}
	merged := newCompletionShard(shards[0].keep)
	for _, s := range shards {
		for _, e := range s.order {
			merged.add(e)
		}
	}
	return merged
}
