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
// resume the other's work — and both sides run the same partition check,
// range loop and fold (partition.go), so the merged result is
// bit-identical to an uninterrupted single-process sweep.

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
	return freshPartition(size, shards, completions).checkpoint(size)
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
// parses and does not exceed the valuations visited, and every completion
// record decodes. It is what the coordinator runs on worker-supplied
// partials before accepting them, so a version-skewed or corrupt payload
// is rejected up front instead of failing the final merge.
func ValidateShardProgress(eng *sweep.Engine, s *ShardCheckpoint) error {
	return parseRange(eng, s, new(sweepRange))
}

// SweepShardRange sweeps one contiguous index range [Next, Hi) of eng's
// enumerated space serially, resuming from the shard's accumulator state
// over [Lo, Next): it is the range loop of a local sweep run on a
// one-range partition. Every stride visits (0 means
// DefaultCheckpointStride) it calls publish with the cumulative position
// and tally and the completion records first seen since the previous
// publish; a publish error aborts the sweep immediately (the caller must
// treat the range as abandoned — the far side's last accepted state is
// the authoritative resume point). On success the returned state has
// Next == Hi, the cumulative tally, and the still-unpublished completion
// records; the caller hands it to the coordinator as the range's final
// partial. Context cancellation returns ctx.Err() after a best-effort
// final publish. A range wider than an int64 is refused with
// ErrShardCheckpoint: no guarded sweep is that large, and the bound keeps
// the range's tally within one word.
func SweepShardRange(ctx context.Context, eng *sweep.Engine, shard ShardCheckpoint, stride int64, publish func(ShardCheckpoint) error) (ShardCheckpoint, error) {
	p := &Partition{completions: eng.Mode() == sweep.ModeCompletions, ranges: make([]sweepRange, 1)}
	r := &p.ranges[0]
	if err := parseRange(eng, &shard, r); err != nil {
		return shard, err
	}
	if !new(big.Int).Sub(r.hi, r.lo).IsInt64() {
		return shard, fmt.Errorf("%w: range [%s, %s) is wider than an int64", ErrShardCheckpoint, r.lo, r.hi)
	}
	if stride <= 0 {
		stride = DefaultCheckpointStride
	}
	var pub func(int, ShardCheckpoint) error
	if publish != nil {
		pub = func(_ int, sc ShardCheckpoint) error { return publish(sc) }
	}
	err := p.sweep(eng, ctx, 1, nil, nil, stride, pub)
	state := r.state()
	if err != nil {
		return state, err
	}
	if cerr := ctx.Err(); cerr != nil {
		if publish != nil {
			_ = publish(state) // best effort: hand upstream the freshest position
		}
		return state, cerr
	}
	return state, nil
}

// MergeCheckpoint folds a fully swept checkpoint into the final count,
// bit-identical to an uninterrupted local sweep: the checkpoint must
// parse against eng (ParseCheckpoint) with every Next at its Hi, and the
// parsed partition goes through the fold of a local sweep.
func MergeCheckpoint(eng *sweep.Engine, cp *SweepCheckpoint) (*big.Int, error) {
	p, err := ParseCheckpoint(eng, cp)
	if err != nil {
		return nil, err
	}
	for i := range p.ranges {
		if r := &p.ranges[i]; r.next.Cmp(r.hi) != 0 {
			return nil, fmt.Errorf("%w: shard %d incomplete (next %s < hi %s)", ErrShardCheckpoint, i, r.next, r.hi)
		}
	}
	n, _ := p.fold(eng)
	return n, nil
}
