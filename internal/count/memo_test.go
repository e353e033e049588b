package count

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Tests of the prefix-state memo at the counting layer: every completion
// sweep that skips repeated prefix blocks — plain, sharded, streamed,
// checkpointed and killed, leased by SweepShardRange — must record the
// same first-seen sequence of (completion, verdict) pairs as a sweep that
// visits every valuation.

// memoQueries are the skip queries plus an opaque cq.Func: the memo
// reasons about completions, not verdicts, so it covers every shape.
var memoQueries = append(slices.Clone(skipQueries),
	&cq.Func{Name: "odd-size", F: func(i *core.Instance) bool { return i.Size()%2 == 1 }})

// compRange sweeps [lo, hi) of a completions engine through the counting
// layer's shard loop, with the shard's prefix memo when memo is set and
// one valuation at a time otherwise, keeping instances. It returns the
// shard with the number of leaves that were not skipped as repeats.
func compRange(t *testing.T, eng *sweep.Engine, lo, hi int64, memo bool) (*completionShard, int64) {
	t.Helper()
	s := newCompletionShard(true)
	if memo {
		s.memo = eng.NewPrefixMemo()
	}
	var leaves int64
	_, err := sweepShard(eng, context.Background(), big.NewInt(lo), big.NewInt(hi), nil, func(cur *sweep.Cursor, rest int64) int64 {
		span := s.visit(cur, rest)
		if span == 1 {
			leaves++
		}
		if span < 1 || span > rest {
			t.Fatalf("span %d outside [1, %d]", span, rest)
		}
		return span
	})
	if err != nil {
		t.Fatal(err)
	}
	s.releaseMemo()
	return s, leaves
}

// sameCompletions fails unless two completion sequences hold the same
// (canonical, verdict) pairs in the same order.
func sameCompletions(t *testing.T, what string, got, want []*compEntry) {
	t.Helper()
	g, w := completionSig(got), completionSig(want)
	if !slices.Equal(g, w) {
		t.Fatalf("%s: %d completions %v, want %d %v", what, len(g), g, len(w), w)
	}
}

// TestCompMemoMatchesReference is the bit-identity matrix: naïve, Codd
// and uniform databases × every query shape. The memo loop and the
// stepping loop see the same completions in the same order, the sharded
// count at 1 and 4 workers equals the Apply-based reference, and
// StreamCompletions yields exactly the satisfying ones in that order.
func TestCompMemoMatchesReference(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	var leaves, valuations int64
	for kind, name := range []string{"naive", "codd", "uniform"} {
		for qi, q := range memoQueries {
			for seed := int64(0); seed < seeds; seed++ {
				r := rand.New(rand.NewSource(seed*131 + int64(qi)))
				db := skipDB(r, kind)
				_, want := refCompletions(t, db, q)
				for _, w := range []int{1, 4} {
					got, err := BruteForceCompletions(db, q, &Options{Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("%s seed %d q=%v workers %d: #Comp %v, reference %v, db:\n%s", name, seed, q, w, got, want, db)
					}
				}
				eng, err := sweep.Compile(db, q, sweep.ModeCompletions)
				if err != nil {
					t.Fatal(err)
				}
				size := eng.Size().Int64()
				memo, n := compRange(t, eng, 0, size, true)
				step, _ := compRange(t, eng, 0, size, false)
				sameCompletions(t, fmt.Sprintf("%s seed %d q=%v", name, seed, q), memo.order, step.order)
				leaves += n
				valuations += size

				var streamed []string
				err = StreamCompletions(db, q, nil, func(inst *core.Instance) bool {
					streamed = append(streamed, inst.CanonicalKey())
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				var sat []string
				for _, e := range step.order {
					if e.sat {
						sat = append(sat, e.inst.CanonicalKey())
					}
				}
				if !slices.Equal(streamed, sat) {
					t.Fatalf("%s seed %d q=%v: streamed %v, want %v", name, seed, q, streamed, sat)
				}
			}
		}
	}
	if leaves >= valuations {
		t.Fatalf("no prefix block was ever skipped: %d leaves for %d valuations", leaves, valuations)
	}
}

// TestCompMemoCheckpointKillResumeCycle is the #Comp twin of
// TestSkipCheckpointKillResumeCycle: a checkpointed completion sweep of
// the 13-cycle over three constants, where the memo skips most blocks, is
// killed at random publishes and resumed, at 1 and 4 workers. Its
// completion sequence must equal the uninterrupted sweep's, and a
// resumed memo starts empty mid-shard, on a position inside a block.
func TestCompMemoCheckpointKillResumeCycle(t *testing.T) {
	db := skipCycleDB(13, []string{"a", "b", "c"})
	q := cq.MustParseBCQ("R(x, x)")
	for _, workers := range []int{1, 4} {
		want, err := bruteCompletionSweep(db, q, &Options{Workers: workers}, false)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(workers)))
		resumes := 0
		for round := 0; round < 3; round++ {
			_, got, n := runWithKills(t, r, db, q, workers, true)
			sameCompletions(t, fmt.Sprintf("workers %d round %d", workers, round), got, want)
			resumes += n
		}
		if resumes == 0 {
			t.Fatalf("workers %d: no sweep was killed and resumed", workers)
		}
	}
}

// TestCompMemoShardRangeCycle sweeps #Comp leases of the 9-cycle over
// three constants whose bounds fall inside memo blocks: each range must
// record exactly the completion sequence a stepping sweep of that range
// records, and a random partition swept with worker kills and re-issues
// must merge to the exact count.
func TestCompMemoShardRangeCycle(t *testing.T) {
	db := skipCycleDB(9, []string{"a", "b", "c"})
	q := cq.MustParseBCQ("R(x, x)")
	eng := distEngine(t, db, q, true)
	size := eng.Size().Int64()
	want, err := BruteForceCompletions(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	trials := 40
	if testing.Short() {
		trials = 10
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < trials; trial++ {
		lo, hi := r.Int63n(size), r.Int63n(size+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		var got []string
		collect := func(recs []CompletionRecord) {
			for _, rec := range recs {
				got = append(got, fmt.Sprintf("%v:%v", rec.Canonical, rec.Sat))
			}
		}
		from, to := fmt.Sprint(lo), fmt.Sprint(hi)
		final, err := SweepShardRange(context.Background(), eng, ShardCheckpoint{Lo: from, Next: from, Hi: to}, 1+r.Int63n(64), func(s ShardCheckpoint) error {
			collect(s.Entries)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		collect(final.Entries)
		step, _ := compRange(t, eng, lo, hi, false)
		if ref := completionSig(step.order); final.Next != to || !slices.Equal(got, ref) {
			t.Fatalf("range [%d, %d): next %s, %d completions %v, want %d %v", lo, hi, final.Next, len(got), got, len(ref), ref)
		}
	}
	for trial := 0; trial < 5; trial++ {
		cuts := []int64{0, size}
		for i := 0; i < 1+r.Intn(6); i++ {
			cuts = append(cuts, r.Int63n(size))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		cp := &SweepCheckpoint{Space: fmt.Sprint(size), Completions: true}
		for i := 0; i+1 < len(cuts); i++ {
			lo := fmt.Sprint(cuts[i])
			cp.Shards = append(cp.Shards, ShardCheckpoint{Lo: lo, Next: lo, Hi: fmt.Sprint(cuts[i+1])})
		}
		cp = sweepAllRanges(t, eng, cp, 1+r.Int63n(64), 2)
		got, err := MergeCheckpoint(eng, cp)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("partition %v: merged #Comp %v, want %v", cuts, got, want)
		}
	}
}

// FuzzCompMemoMatchesFullSweep drives random naïve, Codd and uniform
// databases, the memoQueries shapes and random [lo, hi) ranges through
// the counting layer's completion loop: with the memo it must record the
// first-seen (completion, verdict) sequence a stepping loop of the same
// range records, and over the whole space the sharded count must equal
// the Apply-based reference.
func FuzzCompMemoMatchesFullSweep(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), uint16(65535))
	f.Add(int64(7), uint8(1), uint8(4), uint16(911), uint16(20))
	f.Add(int64(42), uint8(2), uint8(7), uint16(3), uint16(300))
	f.Add(int64(5), uint8(2), uint8(10), uint16(17), uint16(4000))
	f.Fuzz(func(t *testing.T, seed int64, kind, qsel uint8, lo, hi uint16) {
		r := rand.New(rand.NewSource(seed))
		db := skipDB(r, int(kind%3))
		q := memoQueries[int(qsel)%len(memoQueries)]
		eng, err := sweep.Compile(db, q, sweep.ModeCompletions)
		if err != nil {
			t.Fatal(err)
		}
		size := eng.Size().Int64()
		l, h := int64(lo)%(size+1), int64(hi)%(size+1)
		if l > h {
			l, h = h, l
		}
		memo, _ := compRange(t, eng, l, h, true)
		step, _ := compRange(t, eng, l, h, false)
		sameCompletions(t, fmt.Sprintf("q=%v [%d, %d) db:\n%s", q, l, h, db), memo.order, step.order)
		_, want := refCompletions(t, db, q)
		got, err := BruteForceCompletions(db, q, &Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("q=%v: #Comp %v, reference %v, db:\n%s", q, got, want, db)
		}
	})
}
