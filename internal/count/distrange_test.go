package count

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Tests of the distributed-sweep range API: leases cut with
// NewSweepCheckpoint, swept (with interruptions and re-issues) by
// SweepShardRange, and folded by MergeCheckpoint must reproduce the
// serial reference bit-for-bit, and malformed lease state must be
// rejected with ErrShardCheckpoint rather than trusted. The merge's
// refusals share one table with the local resume's and the
// coordinator's (validity_test.go).

// distEngine compiles the engine the way a worker process does.
func distEngine(t *testing.T, db *core.Database, q cq.Query, completions bool) *sweep.Engine {
	t.Helper()
	mode := sweep.ModeValuations
	if completions {
		mode = sweep.ModeCompletions
	}
	eng, err := sweep.CompileWith(db, q, mode, sweep.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// sweepAllRanges plays the coordinator+workers protocol in-process: every
// shard of cp is swept to completion by SweepShardRange with the given
// stride, the worker dropping dead after killEvery successful publishes
// (0 disables kills) and the "coordinator" re-issuing the lease from the
// last state it accepted. Shards are folded with the coordinator-side
// accept step (cumulative position/tally, appended entries), exactly as
// the dist package does over HTTP.
func sweepAllRanges(t *testing.T, eng *sweep.Engine, cp *SweepCheckpoint, stride int64, killEvery int) *SweepCheckpoint {
	t.Helper()
	errKilled := errors.New("worker killed")
	completions := cp.Completions
	for i := range cp.Shards {
		for {
			lease := cp.Shards[i]
			lease.Entries = append([]CompletionRecord(nil), lease.Entries...)
			pubs := 0
			accept := func(s ShardCheckpoint) error {
				if pubs++; killEvery > 0 && pubs >= killEvery {
					return errKilled
				}
				cp.Shards[i].Next = s.Next
				if completions {
					cp.Shards[i].Entries = append(cp.Shards[i].Entries, s.Entries...)
				} else {
					cp.Shards[i].Count = s.Count
				}
				return nil
			}
			final, err := SweepShardRange(context.Background(), eng, lease, stride, accept)
			if errors.Is(err, errKilled) {
				continue // re-issue from the coordinator's accepted state
			}
			if err != nil {
				t.Fatal(err)
			}
			cp.Shards[i].Next = final.Next
			if completions {
				cp.Shards[i].Entries = append(cp.Shards[i].Entries, final.Entries...)
			} else {
				cp.Shards[i].Count = final.Count
			}
			break
		}
	}
	return cp
}

// TestDistRangeBitIdentical: across database styles, sweep modes, lease
// counts and kill cadences, the distributed protocol reproduces the
// serial reference exactly.
func TestDistRangeBitIdentical(t *testing.T) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	schema := map[string]int{"R": 2, "S": 1}
	builders := map[string]func(r *rand.Rand) *core.Database{
		"naive":   func(r *rand.Rand) *core.Database { return randomNaiveDB(r, schema, 4, 5, 3) },
		"codd":    func(r *rand.Rand) *core.Database { return randomCoddDB(r, schema, 4, 3) },
		"uniform": func(r *rand.Rand) *core.Database { return randomUniformDB(r, schema, 4, 5, 3) },
	}
	for name, build := range builders {
		for _, completions := range []bool{false, true} {
			mode := "val"
			if completions {
				mode = "comp"
			}
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				for seed := int64(0); seed < 5; seed++ {
					r := rand.New(rand.NewSource(seed))
					db := build(r)
					var want *big.Int
					var err error
					if completions {
						want, err = BruteForceCompletions(db, q, &Options{Workers: 1})
					} else {
						want, err = BruteForceValuations(db, q, &Options{Workers: 1})
					}
					if err != nil {
						t.Fatal(err)
					}
					for _, leases := range []int{1, 4, 7} {
						for _, killEvery := range []int{0, 2} {
							eng := distEngine(t, db, q, completions)
							cp := NewSweepCheckpoint(eng.Size(), leases, completions)
							cp = sweepAllRanges(t, eng, cp, 13, killEvery)
							got, err := MergeCheckpoint(eng, cp)
							if err != nil {
								t.Fatalf("seed %d leases %d kill %d: %v", seed, leases, killEvery, err)
							}
							if got.Cmp(want) != 0 {
								t.Fatalf("seed %d leases %d kill %d: got %v, want %v", seed, leases, killEvery, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestDistRangeMultiplier: relevant-null pruning shrinks the enumerated
// space; the distributed merge must re-apply the multiplier exactly like
// the local fold does.
func TestDistRangeMultiplier(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 1; i <= 4; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	// Nulls 5..8 only occur in S, which the query never mentions: pruned,
	// folded in as a ×3^4 multiplier.
	for i := 5; i <= 8; i++ {
		db.MustAddFact("S", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := distEngine(t, db, q, false)
	if eng.Multiplier().Cmp(big.NewInt(81)) != 0 {
		t.Fatalf("multiplier = %v, want 81", eng.Multiplier())
	}
	cp := sweepAllRanges(t, eng, NewSweepCheckpoint(eng.Size(), 3, false), 7, 0)
	got, err := MergeCheckpoint(eng, cp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestDistRangeCheckpointInterchangeable: a lease table is a plain
// SweepCheckpoint, so a partially distributed job can be finished by a
// local checkpointed sweep — the fallback path when every worker is gone.
func TestDistRangeCheckpointInterchangeable(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 10; i++ { // 1024 valuations
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := distEngine(t, db, q, false)
	cp := NewSweepCheckpoint(eng.Size(), 4, false)
	// Distribute only the first two leases, then hand the half-done table
	// to a local resumed sweep.
	for i := 0; i < 2; i++ {
		final, err := SweepShardRange(context.Background(), eng, cp.Shards[i], 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cp.Shards[i] = final
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	resume := new(SweepCheckpoint)
	if err := json.Unmarshal(blob, resume); err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(64, resume)
	got, err := BruteForceValuations(db, q, &Options{Workers: 2, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("locally finished distributed table: got %v, want %v", got, want)
	}
}

// TestDistRangeCancellation: a cancelled range sweep reports ctx.Err()
// after a best-effort publish, and the published frontier resumes to the
// exact count. The star's witnesses all hold its last digit, so the
// sweep visits every valuation and outlasts the cancellation poll.
func TestDistRangeCancellation(t *testing.T) {
	db := skipStarDB(13) // 8192 valuations
	q := cq.MustParseBCQ("R(x, x)")
	eng := distEngine(t, db, q, false)
	cp := NewSweepCheckpoint(eng.Size(), 1, false)
	ctx, cancel := context.WithCancel(context.Background())
	var last ShardCheckpoint
	pubs := 0
	_, err := SweepShardRange(ctx, eng, cp.Shards[0], 512, func(s ShardCheckpoint) error {
		last = s
		if pubs++; pubs == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if last.Next == last.Lo {
		t.Fatal("no progress published before cancellation")
	}
	final, err := SweepShardRange(context.Background(), eng, last, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp.Shards[0] = final
	got, err := MergeCheckpoint(eng, cp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestDistRangeRejectsMalformed: structurally invalid lease state errors
// with ErrShardCheckpoint instead of sweeping garbage.
func TestDistRangeRejectsMalformed(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	q := cq.MustParseBCQ("R(x, x)")
	eng := distEngine(t, db, q, false)
	ceng := distEngine(t, db, q, true)
	bad := []struct {
		name string
		eng  *sweep.Engine
		s    ShardCheckpoint
	}{
		{"garbled position", eng, ShardCheckpoint{Lo: "0", Next: "banana", Hi: "4"}},
		{"out of range", eng, ShardCheckpoint{Lo: "0", Next: "9", Hi: "4"}},
		{"past space", eng, ShardCheckpoint{Lo: "0", Next: "0", Hi: "99"}},
		{"garbled tally", eng, ShardCheckpoint{Lo: "0", Next: "1", Hi: "4", Count: "xyz"}},
		{"negative tally", eng, ShardCheckpoint{Lo: "0", Next: "1", Hi: "4", Count: "-3"}},
		{"tally above visited", eng, ShardCheckpoint{Lo: "0", Next: "1", Hi: "4", Count: "2"}},
		{"tally beyond a word", eng, ShardCheckpoint{Lo: "0", Next: "2", Hi: "4", Count: Tally(two128)}},
		{"corrupt canonical", ceng, ShardCheckpoint{Lo: "0", Next: "1", Hi: "4",
			Entries: []CompletionRecord{{Canonical: []uint32{9999}}}}},
	}
	for _, tc := range bad {
		if _, err := SweepShardRange(context.Background(), tc.eng, tc.s, 0, nil); !errors.Is(err, ErrShardCheckpoint) {
			t.Errorf("%s: SweepShardRange err = %v, want ErrShardCheckpoint", tc.name, err)
		}
		if err := ValidateShardProgress(tc.eng, &tc.s); !errors.Is(err, ErrShardCheckpoint) {
			t.Errorf("%s: ValidateShardProgress err = %v, want ErrShardCheckpoint", tc.name, err)
		}
	}
}

// TestNewSweepCheckpointGeometry: the lease table is always a contiguous
// partition of [0, size), clamped to the space.
func TestNewSweepCheckpointGeometry(t *testing.T) {
	cases := []struct {
		size   int64
		shards int
		want   int
	}{
		{100, 7, 7},
		{3, 8, 3},
		{0, 4, 1},
		{5, 0, 1},
	}
	for _, tc := range cases {
		cp := NewSweepCheckpoint(big.NewInt(tc.size), tc.shards, false)
		if len(cp.Shards) != tc.want {
			t.Fatalf("size %d shards %d: got %d shards, want %d", tc.size, tc.shards, len(cp.Shards), tc.want)
		}
		prev := "0"
		for i, s := range cp.Shards {
			if s.Lo != prev || s.Next != s.Lo {
				t.Fatalf("size %d: shard %d not contiguous/fresh: %+v", tc.size, i, s)
			}
			prev = s.Hi
		}
		if prev != big.NewInt(tc.size).String() {
			t.Fatalf("size %d: shards end at %s", tc.size, prev)
		}
	}
}

// TestDistRangeLegacyTally: a lease serialized by the PR-8 era (bare JSON
// number tallies) still decodes and resumes — the wire compat the
// coordinator's structured-error contract depends on.
func TestDistRangeLegacyTally(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 6; i++ { // 64 valuations
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	eng := distEngine(t, db, q, false)
	// Sweep the first half so we know the cumulative tally at index 32.
	half, err := SweepShardRange(context.Background(), eng, ShardCheckpoint{Lo: "0", Next: "0", Hi: "32"}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy := fmt.Sprintf(`{"lo":"0","next":"32","hi":"64","count":%s}`, string(half.Count))
	var s ShardCheckpoint
	if err := json.Unmarshal([]byte(legacy), &s); err != nil {
		t.Fatal(err)
	}
	if err := ValidateShardProgress(eng, &s); err != nil {
		t.Fatalf("legacy tally rejected: %v", err)
	}
	final, err := SweepShardRange(context.Background(), eng, s, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MergeCheckpoint(eng, &SweepCheckpoint{Space: "64", Shards: []ShardCheckpoint{final}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("legacy-resumed count %v, want %v", got, want)
	}
}
