package count

import (
	"math/big"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// shardTally is one shard's satisfying-valuation count: a plain uint64.
// A tally counts the satisfying valuations among those its shard
// accounted for — evaluated, or counted whole with a satisfied leaf's
// witness block — so it never exceeds the shard's interval, and every
// interval fits an int64: local sweeps run only on engines the
// brute-force guard (an int64 MaxValuations) admitted, and
// SweepShardRange refuses a lease wider than that. A tally restored from
// a checkpoint is held to the same bound — 0 ≤ tally ≤ Next − Lo, checked
// by parseShard — so one machine word holds every tally and every sum of
// them. The pruned-null multiplier, which can be astronomically large, is
// applied after the fold on big.Int.
//
// Shards sweep concurrently and bump their tallies on every match, so
// each tally fills a cache line of its own: packed 8-byte counters share
// lines across shards, which slowed a 4-shard #Val sweep on 2 CPUs by
// about 15%. A checkpointed shard's other hot counters live on the same
// line: visited and sincePub count the valuations it accounted for since
// its start and since its last publish, and pos is its publish-position
// scratch, so a publish allocates no big.Int.
type shardTally struct {
	n        uint64
	visited  int64
	sincePub int64
	pos      big.Int
	_        [8]byte
}

// checkpointed accounts for span valuations of a checkpointed shard and
// reports whether a publish is due, resetting the stride when it is.
func (t *shardTally) checkpointed(span, stride int64) bool {
	t.visited += span
	if t.sincePub += span; t.sincePub < stride {
		return false
	}
	t.sincePub = 0
	return true
}

// next computes start+visited — the shard's next unvisited index — into
// the shard's position scratch.
func (t *shardTally) next(start *big.Int) *big.Int {
	t.pos.SetInt64(t.visited)
	return t.pos.Add(&t.pos, start)
}

// foldTallies folds the per-shard tallies and applies the engine's
// pruned-null multiplier.
func foldTallies(counts []shardTally, eng *sweep.Engine) *big.Int {
	var sum uint64
	for i := range counts {
		sum += counts[i].n
	}
	total := new(big.Int).SetUint64(sum)
	return total.Mul(total, eng.Multiplier())
}
