package count

import (
	"math/big"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// shardTally is one shard's satisfying-valuation count: a plain uint64.
// A tally counts the satisfying valuations among those its shard
// visited, so it never exceeds the shard's interval, and every interval
// fits an int64: local sweeps run only on engines the brute-force guard
// (an int64 MaxValuations) admitted, and SweepShardRange refuses a lease
// wider than that. A tally restored from a checkpoint is held to the same
// bound — 0 ≤ tally ≤ Next − Lo, checked by parseShard — so one machine
// word holds every tally and every sum of them. The pruned-null
// multiplier, which can be astronomically large, is applied after the
// fold on big.Int.
//
// Shards sweep concurrently and bump their tallies on every match, so
// each tally fills a cache line of its own: packed 8-byte counters share
// lines across shards, which slowed a 4-shard #Val sweep on 2 CPUs by
// about 15%.
type shardTally struct {
	n uint64
	_ [56]byte
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
