package count

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// A brute-force sweep is one thing, built from three pieces: a partition
// of the engine's enumerated space [0, Size) into contiguous ranges in
// index order, one range loop that sweeps a range with its own
// accumulator, and one fold that merges the ranges back in index order.
// A fresh local sweep cuts the partition with shardCount/shardBounds; a
// resumed one parses it from a SweepCheckpoint (ParseCheckpoint); a
// distributed job cuts it into leases, each of which a worker sweeps as a
// one-range partition (SweepShardRange) before the coordinator folds the
// finished table (MergeCheckpoint). Ranges partition the space in index
// order and publish their state only at exact visit boundaries, so every
// way of running a sweep folds to the count of an uninterrupted serial
// sweep.

// Partition is a partition of an engine's enumerated space [0, Size)
// into contiguous ranges in index order, with each range's resume
// position and accumulator. ParseCheckpoint builds one from a
// SweepCheckpoint.
type Partition struct {
	completions bool
	keep        bool // #Comp ranges retain completion instances
	ranges      []sweepRange
}

// sweepRange is one range [lo, hi) of a partition: the index next it
// resumes from and its accumulator over [lo, next) — the
// satisfying-valuation tally of a #Val sweep, or on a #Comp sweep the
// completion shard holding the distinct completions first seen there.
// The tally comes first: it is the only part of a range written while the
// range is swept, and it fills a cache line of its own (see shardTally).
type sweepRange struct {
	t            shardTally
	lo, next, hi *big.Int
	comp         *completionShard

	// until, when set on a #Val range, ends the range at its first leaf
	// whose verdict is *until: the early exit of IsCertain and IsPossible.
	until *bool
}

// freshPartition cuts [0, size) into shards ranges of shardBounds'
// geometry, none of them swept yet.
func freshPartition(size *big.Int, shards int, completions bool) *Partition {
	bounds := shardBounds(size, shards)
	p := &Partition{completions: completions, ranges: make([]sweepRange, shards)}
	for i := range p.ranges {
		r := &p.ranges[i]
		r.lo, r.next, r.hi = bounds[i], bounds[i], bounds[i+1]
	}
	return p
}

// ParseCheckpoint parses cp against eng into a Partition: cp must name
// eng's space and sweep mode, and its shards must tile [0, Size) in index
// order, each passing ValidateShardProgress. It is the one check of
// whether a SweepCheckpoint fits an engine: the local resume,
// MergeCheckpoint and the distributed coordinator's job recovery all run
// it. Every error it returns wraps ErrShardCheckpoint.
func ParseCheckpoint(eng *sweep.Engine, cp *SweepCheckpoint) (*Partition, error) {
	if cp == nil {
		return nil, fmt.Errorf("%w: nil checkpoint", ErrShardCheckpoint)
	}
	size := eng.Size()
	completions := eng.Mode() == sweep.ModeCompletions
	switch {
	case cp.Space != size.String():
		return nil, fmt.Errorf("%w: space %s does not match engine space %s", ErrShardCheckpoint, cp.Space, size)
	case cp.Completions != completions:
		return nil, fmt.Errorf("%w: checkpoint and engine disagree on sweep mode", ErrShardCheckpoint)
	case len(cp.Shards) == 0:
		return nil, fmt.Errorf("%w: no shards", ErrShardCheckpoint)
	}
	p := &Partition{completions: completions, ranges: make([]sweepRange, len(cp.Shards))}
	prev := new(big.Int)
	for i := range cp.Shards {
		r := &p.ranges[i]
		if err := parseRange(eng, &cp.Shards[i], r); err != nil {
			return nil, err
		}
		if r.lo.Cmp(prev) != 0 {
			return nil, fmt.Errorf("%w: shard %d starts at %s, want %s", ErrShardCheckpoint, i, r.lo, prev)
		}
		prev = r.hi
	}
	if prev.Cmp(size) != 0 {
		return nil, fmt.Errorf("%w: shards cover [0, %s), want [0, %s)", ErrShardCheckpoint, prev, size)
	}
	return p, nil
}

// parseRange parses one shard against eng into r. Its positions must
// parse with 0 ≤ Lo ≤ Next ≤ Hi ≤ Size, its tally must parse with
// 0 ≤ tally ≤ Next − Lo — a shard cannot have counted more satisfying
// valuations than it visited, and the bound is what makes a tally from a
// foreign checkpoint fit the uint64 shard counters (see accum.go) — and
// every completion record must decode against eng. A #Comp range's
// completion shard is seeded with the decoded records.
func parseRange(eng *sweep.Engine, s *ShardCheckpoint, r *sweepRange) error {
	size := eng.Size()
	lo, ok1 := new(big.Int).SetString(s.Lo, 10)
	next, ok2 := new(big.Int).SetString(s.Next, 10)
	hi, ok3 := new(big.Int).SetString(s.Hi, 10)
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("%w: malformed position", ErrShardCheckpoint)
	}
	if lo.Sign() < 0 || next.Cmp(lo) < 0 || hi.Cmp(next) < 0 || hi.Cmp(size) > 0 {
		return fmt.Errorf("%w: positions out of order or outside [0, %s]", ErrShardCheckpoint, size)
	}
	tally, ok := s.Count.value()
	if !ok {
		return fmt.Errorf("%w: malformed tally %q", ErrShardCheckpoint, s.Count)
	}
	if visited := new(big.Int).Sub(next, lo); visited.IsUint64() && tally > visited.Uint64() {
		return fmt.Errorf("%w: tally %d exceeds the %s valuations visited", ErrShardCheckpoint, tally, visited)
	}
	entries, err := rehydrateEntries(eng, s.Entries)
	if err != nil {
		return err
	}
	r.lo, r.next, r.hi, r.t.n = lo, next, hi, tally
	if eng.Mode() == sweep.ModeCompletions {
		r.comp = newCompletionShard(false)
		r.comp.restore(entries)
	}
	return nil
}

// checkpoint renders p as the SweepCheckpoint of a space of the given
// size: every range's interval, resume position and accumulator.
func (p *Partition) checkpoint(size *big.Int) *SweepCheckpoint {
	cp := &SweepCheckpoint{Space: size.String(), Completions: p.completions, Shards: make([]ShardCheckpoint, len(p.ranges))}
	for i := range p.ranges {
		r, sc := &p.ranges[i], &cp.Shards[i]
		sc.Lo, sc.Next, sc.Hi = r.lo.String(), r.next.String(), r.hi.String()
		if r.comp == nil {
			sc.Count = tallyOf(r.t.n)
			continue
		}
		for _, e := range r.comp.order {
			sc.Entries = append(sc.Entries, recordOf(e))
		}
	}
	return cp
}

// state renders the range's resume state where it stands: its interval,
// its next unvisited index, and its tally on #Val or, on #Comp, the
// completions first seen since the previous state.
func (r *sweepRange) state() ShardCheckpoint {
	sc := ShardCheckpoint{Lo: r.lo.String(), Next: r.t.next(r.next).String(), Hi: r.hi.String()}
	if r.comp == nil {
		sc.Count = tallyOf(r.t.n)
	} else {
		sc.Entries = r.comp.drainPending()
	}
	return sc
}

// sweep runs every range of p through the range loop on at most workers
// goroutines, which take the ranges in index order. progress is notified
// as described by Options.Progress, with one unit per range. When pub is
// set, every range publishes its state each stride valuations. A range
// whose loop fails stops; sweep returns the first such error. A
// cancelled sweep returns nil — the caller checks the context — and
// starts no further range; every range's position and accumulator stay
// exact wherever it stopped.
func (p *Partition) sweep(eng *sweep.Engine, ctx context.Context, workers int, progress func(done, total int), phases *PhaseTimes, stride int64, pub func(int, ShardCheckpoint) error) error {
	if p.completions {
		for i := range p.ranges {
			if p.ranges[i].comp == nil {
				p.ranges[i].comp = newCompletionShard(p.keep)
			}
		}
	}
	tracker := newProgressTracker(progress, len(p.ranges))
	if eng.Size().Sign() == 0 {
		tracker.finishAll(ctx)
		return nil
	}
	if workers = min(workers, len(p.ranges)); workers <= 1 {
		for i := 0; i < len(p.ranges) && ctx.Err() == nil; i++ {
			if err := p.sweepRange(eng, ctx, i, phases, stride, pub, tracker); err != nil {
				return err
			}
		}
		return nil
	}
	mode := "valuations"
	if p.completions {
		mode = "completions"
	}
	errs := make([]error, len(p.ranges))
	var taken atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(taken.Add(1) - 1); i < len(p.ranges) && ctx.Err() == nil; i = int(taken.Add(1) - 1) {
				// Label the range's goroutine so pprof profiles break the
				// sweep down by range and mode.
				pprof.Do(ctx, pprof.Labels("sweep_shard", strconv.Itoa(i), "sweep_mode", mode), func(ctx context.Context) {
					errs[i] = p.sweepRange(eng, ctx, i, phases, stride, pub, tracker)
				})
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepRange sweeps range i and reports it done when it finishes cleanly.
func (p *Partition) sweepRange(eng *sweep.Engine, ctx context.Context, i int, phases *PhaseTimes, stride int64, pub func(int, ShardCheckpoint) error, tracker *progressTracker) error {
	var rpub func(ShardCheckpoint) error
	if pub != nil {
		rpub = func(sc ShardCheckpoint) error { return pub(i, sc) }
	}
	if err := p.ranges[i].sweep(eng, ctx, phases, stride, rpub); err != nil {
		return err
	}
	tracker.shardDone(ctx)
	return nil
}

// sweep is the range loop: it sweeps r from next to hi with the range's
// accumulator — the tally of a #Val range, or the completion shard of a
// #Comp range with a prefix memo of its own for the length of the loop —
// and, when pub is set, publishes the range's state every stride
// valuations. A publish error stops the range and is returned. The range
// stops only between leaves, and a leaf's span is accounted whole, so the
// published and final positions are exact.
func (r *sweepRange) sweep(eng *sweep.Engine, ctx context.Context, phases *PhaseTimes, stride int64, pub func(ShardCheckpoint) error) error {
	t, cs, until := &r.t, r.comp, r.until
	if cs != nil {
		cs.memo, cs.timing = eng.NewPrefixMemo(), phases
		defer cs.releaseMemo()
	}
	var pubErr error
	visit := func(cur *sweep.Cursor, rest int64) int64 {
		var (
			sat  bool
			span int64
		)
		if cs != nil {
			span = cs.visit(cur, rest)
		} else if sat, span = t.leaf(cur, rest); until != nil && sat == *until {
			return 0
		}
		if pub != nil && t.checkpointed(span, stride) {
			if pubErr = pub(r.state()); pubErr != nil {
				return 0
			}
		}
		return span
	}
	if cs == nil && until == nil && pub == nil {
		// A plain #Val range has nothing to stop at or publish. Its leaf is
		// the cheapest and most frequent of all, and skipping the tests
		// above saves about 5 % of a sweep whose witness blocks are short
		// (BenchmarkValBruteParallel/workers=1 on a 2-vCPU VM).
		visit = func(cur *sweep.Cursor, rest int64) int64 {
			_, span := t.leaf(cur, rest)
			return span
		}
	}
	visited, err := sweepShard(eng, ctx, r.next, r.hi, phases, visit)
	if err != nil {
		return err
	}
	if pubErr != nil {
		// The range stopped on a leaf it had already accounted for.
		return pubErr
	}
	t.visited = visited
	return nil
}

// fold merges the ranges of a swept partition in index order: #Val
// tallies sum and then pick up the engine's pruned-null multiplier;
// #Comp completions merge keeping each one's first-seen occurrence
// (equality by exact canonical encoding) and the satisfying ones are
// counted. It returns the count and, on #Comp, the merged completions —
// exactly what one serial sweep would have produced.
func (p *Partition) fold(eng *sweep.Engine) (*big.Int, []*compEntry) {
	if !p.completions {
		// Every local tally sum fits a word (accum.go); a merged
		// checkpoint of a space beyond 2^64 carries into the high word.
		var sum, carry uint64
		for i := range p.ranges {
			var c uint64
			sum, c = bits.Add64(sum, p.ranges[i].t.n, 0)
			carry += c
		}
		total := new(big.Int).SetUint64(sum)
		if carry > 0 {
			total.Add(total, new(big.Int).Lsh(new(big.Int).SetUint64(carry), 64))
		}
		return total.Mul(total, eng.Multiplier()), nil
	}
	merged := p.ranges[0].comp
	if len(p.ranges) > 1 {
		merged = newCompletionShard(false)
		for i := range p.ranges {
			for _, e := range p.ranges[i].comp.order {
				merged.add(e)
			}
		}
	}
	sat := int64(0)
	for _, e := range merged.order {
		if e.sat {
			sat++
		}
	}
	return big.NewInt(sat), merged.order
}
