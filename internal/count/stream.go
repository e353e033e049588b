package count

import (
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// StreamCompletions enumerates the distinct completions of db that
// satisfy q, calling fn for each one as it is first encountered, without
// ever materializing the whole set of satisfying completions. Enumeration
// is the range loop over a one-range partition, in first-seen
// valuation-index order — the same order EnumerateCompletions reports,
// restricted to the satisfying completions — and stops early when fn
// returns false. The guard in opts applies to the valuation space exactly
// as for BruteForceCompletions, and the context in opts cancels the sweep
// between visits.
//
// Deduplication state (one 128-bit hash and canonical snapshot per
// distinct completion seen, and the range's prefix memo) still grows with
// the number of distinct completions; what streaming avoids is holding
// every satisfying *instance* alive at once, and — when the consumer
// stops early — the tail of the sweep.
func StreamCompletions(db *core.Database, q cq.Query, opts *Options, fn func(*core.Instance) bool) error {
	eng, err := compileGuarded(db, q, sweep.ModeCompletions, opts)
	if err != nil {
		return err
	}
	p := freshPartition(eng.Size(), 1, true)
	s := newCompletionShard(false)
	stopped := false
	s.emit = func(inst *core.Instance) bool {
		stopped = !fn(inst)
		return !stopped
	}
	p.ranges[0].comp = s
	ctx := opts.context()
	if err := p.sweep(eng, ctx, 1, nil, nil, 0, nil); err != nil || stopped {
		return err
	}
	return ctx.Err()
}
