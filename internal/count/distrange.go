package count

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Distributed-sweep support: a coordinator decomposes one sweep into
// contiguous index-range leases, remote workers sweep each lease with
// SweepShardRange, and the coordinator folds the completed ranges back
// together with MergeCheckpoint. The lease table reuses SweepCheckpoint /
// ShardCheckpoint wholesale, so a distributed job's durable state is the
// same artifact a local checkpointed sweep produces — either side can
// resume the other's work — and because ranges partition [0, Size) in
// index order and publishes happen at exact visit boundaries, the merged
// result is bit-identical to an uninterrupted single-process sweep.

// ErrShardCheckpoint reports a structurally invalid ShardCheckpoint:
// unparseable positions or tally, positions outside the engine's space,
// or completion records that do not decode against the engine. Callers
// translating to wire errors can match it with errors.Is.
var ErrShardCheckpoint = errors.New("count: invalid shard checkpoint")

// NewSweepCheckpoint builds the fresh geometry of a sweep over a space of
// the given size split into shards contiguous index ranges — the
// coordinator's lease table before any work has happened. Shard widths are
// within one of each other; shards is clamped to [1, size] (with at least
// one shard even for an empty space, so the checkpoint stays a valid
// partition).
func NewSweepCheckpoint(size *big.Int, shards int, completions bool) *SweepCheckpoint {
	if shards < 1 {
		shards = 1
	}
	if size.Sign() <= 0 {
		shards = 1
	} else if size.IsInt64() && size.Int64() < int64(shards) {
		shards = int(size.Int64())
	}
	bounds := shardBounds(size, shards)
	cp := &SweepCheckpoint{Space: size.String(), Completions: completions}
	cp.Shards = make([]ShardCheckpoint, shards)
	for i := 0; i < shards; i++ {
		cp.Shards[i] = ShardCheckpoint{
			Lo:   bounds[i].String(),
			Next: bounds[i].String(),
			Hi:   bounds[i+1].String(),
		}
	}
	return cp
}

// parseShard validates one shard against a space of the given size: its
// positions must parse with 0 ≤ Lo ≤ Next ≤ Hi ≤ size, and its tally must
// parse with 0 ≤ tally ≤ Next − Lo, since a shard cannot have counted
// more satisfying valuations than it visited. The bound is what makes a
// tally from a foreign checkpoint fit the uint64 shard counters (see
// accum.go). Every consumer of checkpoint state — the local restore,
// ValidateShardProgress, SweepShardRange and MergeCheckpoint — runs it.
func parseShard(s *ShardCheckpoint, size *big.Int) (lo, next, hi *big.Int, tally uint64, err error) {
	lo, ok1 := new(big.Int).SetString(s.Lo, 10)
	next, ok2 := new(big.Int).SetString(s.Next, 10)
	hi, ok3 := new(big.Int).SetString(s.Hi, 10)
	if !ok1 || !ok2 || !ok3 {
		return nil, nil, nil, 0, fmt.Errorf("%w: malformed position", ErrShardCheckpoint)
	}
	if lo.Sign() < 0 || next.Cmp(lo) < 0 || hi.Cmp(next) < 0 || hi.Cmp(size) > 0 {
		return nil, nil, nil, 0, fmt.Errorf("%w: positions out of order or outside [0, %s]", ErrShardCheckpoint, size)
	}
	tally, ok := s.Count.value()
	if !ok {
		return nil, nil, nil, 0, fmt.Errorf("%w: malformed tally %q", ErrShardCheckpoint, s.Count)
	}
	if visited := new(big.Int).Sub(next, lo); visited.IsUint64() && tally > visited.Uint64() {
		return nil, nil, nil, 0, fmt.Errorf("%w: tally %d exceeds the %s valuations visited", ErrShardCheckpoint, tally, visited)
	}
	return lo, next, hi, tally, nil
}

// rehydrateEntries decodes completion records against eng's interned
// snapshot encoding.
func rehydrateEntries(eng *sweep.Engine, recs []CompletionRecord) ([]*compEntry, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	entries := make([]*compEntry, len(recs))
	for i, rec := range recs {
		snap, err := eng.SnapshotOf(rec.Canonical)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrShardCheckpoint, err)
		}
		entries[i] = &compEntry{
			hash: sweep.Hash128{Lo: rec.HashLo, Hi: rec.HashHi},
			snap: snap,
			sat:  rec.Sat,
		}
	}
	return entries, nil
}

// ValidateShardProgress structurally checks a progress payload against the
// engine: positions parse and are ordered within the space, the tally
// parses and does not exceed the valuations visited, and (on completion
// sweeps) every record decodes. It is what the coordinator runs on
// worker-supplied partials before accepting them, so a version-skewed or
// corrupt payload is rejected up front instead of failing the final
// merge.
func ValidateShardProgress(eng *sweep.Engine, s *ShardCheckpoint) error {
	if _, _, _, _, err := parseShard(s, eng.Size()); err != nil {
		return err
	}
	_, err := rehydrateEntries(eng, s.Entries)
	return err
}

// SweepShardRange sweeps one contiguous index range [Next, Hi) of eng's
// enumerated space serially, resuming from the shard's accumulator state
// over [Lo, Next). Every stride visits (0 means DefaultCheckpointStride)
// it calls publish with the cumulative position and tally and the
// completion records first seen since the previous successful publish;
// a publish error aborts the sweep immediately (the caller must treat the
// range as abandoned — the far side's last accepted state is the
// authoritative resume point). On success the returned state has
// Next == Hi, the cumulative tally, and the still-unpublished completion
// records; the caller hands it to the coordinator as the range's final
// partial. Context cancellation returns ctx.Err() after a best-effort
// final publish. A range wider than an int64 is refused with
// ErrShardCheckpoint: no guarded sweep is that large, and the bound keeps
// the range's tally within one word.
func SweepShardRange(ctx context.Context, eng *sweep.Engine, shard ShardCheckpoint, stride int64, publish func(ShardCheckpoint) error) (ShardCheckpoint, error) {
	lo, next, hi, tally, err := parseShard(&shard, eng.Size())
	if err != nil {
		return shard, err
	}
	if !new(big.Int).Sub(hi, lo).IsInt64() {
		return shard, fmt.Errorf("%w: range [%s, %s) is wider than an int64", ErrShardCheckpoint, lo, hi)
	}
	if stride <= 0 {
		stride = DefaultCheckpointStride
	}
	completions := eng.Mode() == sweep.ModeCompletions

	var cs *completionShard
	if completions {
		entries, err := rehydrateEntries(eng, shard.Entries)
		if err != nil {
			return shard, err
		}
		cs = newCompletionShard(false)
		cs.restore(entries)
	}

	state := ShardCheckpoint{Lo: shard.Lo, Next: shard.Next, Hi: shard.Hi, Count: shard.Count}
	if next.Cmp(hi) == 0 {
		return state, nil
	}

	var pubErr error
	t := shardTally{n: tally} // the cumulative tally and publish counters
	// fill puts into state the cumulative tally, or the completion records
	// first seen since the previous publish.
	fill := func() {
		if completions {
			state.Count, state.Entries = "", cs.drainPending()
		} else {
			state.Count, state.Entries = tallyOf(t.n), nil
		}
	}
	flush := func() error {
		if publish == nil {
			return nil
		}
		state.Next = t.next(next).String()
		fill()
		return publish(state)
	}
	err = sweepShard(eng, ctx, next, hi, 0, nil, func(_ int, cur *sweep.Cursor, rest int64) int64 {
		span := int64(1)
		if completions {
			cs.visit(cur)
		} else {
			span = t.leaf(cur, rest)
		}
		if t.checkpointed(span, stride) {
			if pubErr = flush(); pubErr != nil {
				return 0
			}
		}
		return span
	})
	if err != nil {
		return state, err // Seek error: the interval itself was invalid
	}
	if pubErr != nil {
		return state, pubErr
	}
	if cerr := ctx.Err(); cerr != nil {
		_ = flush() // best effort: hand upstream the freshest position
		return state, cerr
	}
	state.Next = shard.Hi
	fill()
	return state, nil
}

// MergeCheckpoint folds a fully swept checkpoint into the final count,
// bit-identical to an uninterrupted local sweep: the shards must form a
// contiguous partition of [0, Size) with every Next at its Hi. Valuation
// tallies sum and then pick up the engine's pruned-null multiplier —
// exactly foldTallies' order of operations — and completion records
// deduplicate across shards in index order by exact canonical encoding
// before the satisfying ones are counted, exactly as
// mergeCompletionShards does for an in-process sharded sweep.
func MergeCheckpoint(eng *sweep.Engine, cp *SweepCheckpoint) (*big.Int, error) {
	if cp == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrShardCheckpoint)
	}
	size := eng.Size()
	completions := eng.Mode() == sweep.ModeCompletions
	if cp.Space != size.String() {
		return nil, fmt.Errorf("%w: space %s does not match engine space %s", ErrShardCheckpoint, cp.Space, size)
	}
	if cp.Completions != completions {
		return nil, fmt.Errorf("%w: checkpoint and engine disagree on sweep mode", ErrShardCheckpoint)
	}
	if len(cp.Shards) == 0 {
		return nil, fmt.Errorf("%w: no shards", ErrShardCheckpoint)
	}
	var merged *completionShard
	if completions {
		merged = newCompletionShard(false)
	}
	total := new(big.Int)
	prev := big.NewInt(0)
	for i := range cp.Shards {
		s := &cp.Shards[i]
		lo, next, hi, tally, err := parseShard(s, size)
		if err != nil {
			return nil, err
		}
		if lo.Cmp(prev) != 0 {
			return nil, fmt.Errorf("%w: shard %d starts at %s, want %s", ErrShardCheckpoint, i, lo, prev)
		}
		if next.Cmp(hi) != 0 {
			return nil, fmt.Errorf("%w: shard %d incomplete (next %s < hi %s)", ErrShardCheckpoint, i, next, hi)
		}
		prev = hi
		if completions {
			entries, err := rehydrateEntries(eng, s.Entries)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				merged.add(e)
			}
			continue
		}
		total.Add(total, new(big.Int).SetUint64(tally))
	}
	if prev.Cmp(size) != 0 {
		return nil, fmt.Errorf("%w: shards cover [0, %s), want [0, %s)", ErrShardCheckpoint, prev, size)
	}
	if completions {
		sat := int64(0)
		for _, e := range merged.order {
			if e.sat {
				sat++
			}
		}
		return big.NewInt(sat), nil
	}
	return total.Mul(total, eng.Multiplier()), nil
}
