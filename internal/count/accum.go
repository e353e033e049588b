package count

import (
	"math/big"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// shardTally is one range's satisfying-valuation count: a plain uint64.
// A tally counts the satisfying valuations among those its range
// accounted for — evaluated, or counted whole with a satisfied leaf's
// witness block — so it never exceeds the range's interval, and every
// interval fits an int64: local sweeps run only on engines the
// brute-force guard (an int64 MaxValuations) admitted, and
// SweepShardRange refuses a lease wider than that. A tally restored from
// a checkpoint is held to the same bound — 0 ≤ tally ≤ Next − Lo, checked
// by ParseCheckpoint — so one machine word holds every tally and every
// sum of them over a guarded space. The pruned-null multiplier, which can
// be astronomically large, is applied after the fold on big.Int.
//
// Ranges sweep concurrently and bump their tallies on every match, so
// each tally fills a cache line of its own: packed 8-byte counters share
// lines across ranges, which slowed a 4-shard #Val sweep on 2 CPUs by
// about 15%. A range's other hot counters live on the same line: visited
// and sincePub count the valuations it accounted for since its start and
// since its last publish, and pos is its publish-position scratch, so a
// publish allocates no big.Int.
type shardTally struct {
	n        uint64
	visited  int64
	sincePub int64
	pos      big.Int
	_        [8]byte
}

// leaf evaluates the cursor's leaf and tallies the valuations it accounts
// for when they satisfy the query: the #Val leaf of the range loop. It
// returns the leaf's verdict and span.
func (t *shardTally) leaf(cur *sweep.Cursor, rest int64) (bool, int64) {
	sat, span := cur.MatchSpan(rest)
	if sat {
		t.n += uint64(span)
	}
	return sat, span
}

// checkpointed accounts for span valuations of a range that publishes
// its state and reports whether a publish is due, resetting the stride
// when it is. A range without a publisher learns its position from
// sweepShard when its loop ends.
func (t *shardTally) checkpointed(span, stride int64) bool {
	t.visited += span
	if t.sincePub += span; t.sincePub < stride {
		return false
	}
	t.sincePub = 0
	return true
}

// next computes start+visited — the range's next unvisited index — into
// the range's position scratch.
func (t *shardTally) next(start *big.Int) *big.Int {
	t.pos.SetInt64(t.visited)
	return t.pos.Add(&t.pos, start)
}
