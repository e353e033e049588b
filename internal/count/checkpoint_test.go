package count

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Tests of checkpoint/resume: a sweep killed at arbitrary checkpoint
// boundaries and resumed from the serialized state (JSON round-tripped,
// like the job store persists it) must produce results bit-identical to
// an uninterrupted run — for valuation counts and for the full
// deduplicated completion sequence — across database styles and worker
// counts. An invalid or mismatched resume state must be discarded, not
// trusted.

// killStride is deliberately tiny so even the small random spaces of the
// property tests cross many checkpoint boundaries.
const killStride = 17

// roundTrip serializes a checkpoint the way the job store does and
// decodes it back, so the test resumes from what disk would hold.
func roundTrip(t *testing.T, cp *SweepCheckpoint) *SweepCheckpoint {
	t.Helper()
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	out := new(SweepCheckpoint)
	if err := json.Unmarshal(blob, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// runWithKills repeatedly starts the sweep with a Checkpointer seeded
// from the previous attempt's snapshot, cancelling the context after a
// random number of publishes, until one attempt runs to completion. It
// returns the final merged result of that last attempt and the number of
// resumes that actually happened (shards only poll for cancellation
// every cancelCheckInterval visits, so sweeps over small spaces can
// finish before a kill lands).
func runWithKills(t *testing.T, r *rand.Rand, db *core.Database, q cq.Query, workers int, completions bool) (*big.Int, *completionShard, int) {
	t.Helper()
	var resume *SweepCheckpoint
	for attempt := 0; ; attempt++ {
		ck := NewCheckpointer(killStride, resume)
		ctx, cancel := context.WithCancel(context.Background())
		if attempt < 12 { // after enough kills, let the sweep finish
			killAfter := 1 + r.Intn(6)
			ck.onPublish = func(n int) {
				if n == killAfter {
					cancel()
				}
			}
		}
		opts := &Options{Workers: workers, Context: ctx, Checkpoint: ck}
		var (
			n      *big.Int
			merged *completionShard
			err    error
		)
		if completions {
			merged, err = bruteCompletionSweep(db, q, opts, false)
		} else {
			n, err = BruteForceValuations(db, q, opts)
		}
		cancel()
		if err == nil {
			return n, merged, attempt
		}
		if err != context.Canceled {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		resume = roundTrip(t, ck.Snapshot())
	}
}

// completionSig renders a merged completion shard as an exact sequence of
// (canonical encoding, verdict) pairs — order included, since first-seen
// order is part of the contract.
func completionSig(s *completionShard) []string {
	out := make([]string, len(s.order))
	for i, e := range s.order {
		out[i] = fmt.Sprintf("%v:%v", e.snap.Canonical, e.sat)
	}
	return out
}

// TestCheckpointResumeBitIdentical is the kill/resume property test: on
// randomized naïve, Codd and uniform databases, serial and 4-way sweeps
// interrupted at random checkpoint boundaries and resumed must match the
// uninterrupted run exactly — the #Val count and the full deduplicated
// completion sequence with verdicts.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	schema := map[string]int{"R": 2, "S": 1}
	// ballast appends R facts over fresh nulls with 3-element domains so
	// the enumerated space is always ≥ 3^8, well past the cancellation
	// poll interval (cancelCheckInterval) even split across 4 shards —
	// without it, small random spaces finish before a kill can land.
	ballast := func(db *core.Database, uniform bool) *core.Database {
		base := core.NullID(1000)
		for i := 0; i < 8; i += 2 {
			n1, n2 := base+core.NullID(i), base+core.NullID(i+1)
			if !uniform {
				db.SetDomain(n1, []string{"a", "b", "c"})
				db.SetDomain(n2, []string{"a", "b", "c"})
			}
			db.MustAddFact("R", core.Null(n1), core.Null(n2))
		}
		return db
	}
	builders := map[string]func(r *rand.Rand) *core.Database{
		"naive": func(r *rand.Rand) *core.Database {
			return ballast(randomNaiveDB(r, schema, 4, 5, 3), false)
		},
		"codd": func(r *rand.Rand) *core.Database {
			return ballast(randomCoddDB(r, schema, 4, 3), false)
		},
		"uniform": func(r *rand.Rand) *core.Database {
			return ballast(randomUniformDB(r, schema, 4, 5, 3), true)
		},
	}
	for name, build := range builders {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				resumes := 0
				for seed := int64(0); seed < 6; seed++ {
					r := rand.New(rand.NewSource(seed))
					db := build(r)
					plain := &Options{Workers: workers}
					wantV, err := BruteForceValuations(db, q, plain)
					if err != nil {
						t.Fatal(err)
					}
					wantC, err := bruteCompletionSweep(db, q, plain, false)
					if err != nil {
						t.Fatal(err)
					}
					gotV, _, nV := runWithKills(t, r, db, q, workers, false)
					if gotV.Cmp(wantV) != 0 {
						t.Fatalf("seed %d: resumed #Val %v, want %v", seed, gotV, wantV)
					}
					_, gotC, nC := runWithKills(t, r, db, q, workers, true)
					resumes += nV + nC
					wantSig, gotSig := completionSig(wantC), completionSig(gotC)
					if len(wantSig) != len(gotSig) {
						t.Fatalf("seed %d: resumed sweep saw %d completions, want %d", seed, len(gotSig), len(wantSig))
					}
					for i := range wantSig {
						if wantSig[i] != gotSig[i] {
							t.Fatalf("seed %d: completion %d differs:\n got %s\nwant %s", seed, i, gotSig[i], wantSig[i])
						}
					}
				}
				if resumes == 0 {
					t.Fatal("no sweep was ever killed and resumed — the property was not exercised")
				}
			})
		}
	}
}

// TestCheckpointInvalidResumeDiscarded: resume states that do not match
// the engine — wrong space size, non-contiguous shards, corrupted
// canonical encodings, a tally above the valuations its shard visited —
// are discarded and the sweep restarts from scratch, still producing the
// right answer.
func TestCheckpointInvalidResumeDiscarded(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	for i := 1; i <= 6; i++ { // 3^6 = 729 valuations
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	q := cq.MustParseBCQ("R(x)")
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []*SweepCheckpoint{
		{Space: "999", Shards: []ShardCheckpoint{{Lo: "0", Next: "100", Hi: "999", Count: "42"}}},
		{Space: "729", Shards: []ShardCheckpoint{{Lo: "5", Next: "100", Hi: "729", Count: "42"}}},
		{Space: "729", Shards: []ShardCheckpoint{{Lo: "0", Next: "800", Hi: "729", Count: "42"}}},
		{Space: "729", Shards: []ShardCheckpoint{{Lo: "0", Next: "not-a-number", Hi: "729"}}},
		{Space: "729", Completions: true, Shards: []ShardCheckpoint{{Lo: "0", Next: "1", Hi: "729",
			Entries: []CompletionRecord{{Canonical: []uint32{9999}}}}}},
		// Tallies above Next − Lo: one past the bound, and one no word holds.
		{Space: "729", Shards: []ShardCheckpoint{{Lo: "0", Next: "100", Hi: "729", Count: "101"}}},
		{Space: "729", Shards: []ShardCheckpoint{{Lo: "0", Next: "2", Hi: "729", Count: Tally(two128)}}},
	}
	for i, cp := range bad {
		ck := NewCheckpointer(killStride, cp)
		got, err := BruteForceValuations(db, q, &Options{Workers: 2, Checkpoint: ck})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("case %d: count %v, want %v (invalid resume state was trusted)", i, got, want)
		}
	}
}

// TestCheckpointCancelledSnapshotFresh: after a cancelled sweep, the
// snapshot reflects the exact frontier — resuming and finishing visits
// exactly the remaining valuations (no index visited twice or skipped),
// which the bit-identical count across a forced mid-space kill verifies
// on a space whose satisfying valuations are all distinct from zero. The
// star leaves the skip no block to pass over, so every shard is still
// mid-sweep when the kill lands.
func TestCheckpointCancelledSnapshotFresh(t *testing.T) {
	db := skipStarDB(14) // 16384 valuations
	q := cq.MustParseBCQ("R(x, x)")
	want, err := BruteForceValuations(db, q, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ck := NewCheckpointer(64, nil)
	ck.onPublish = func(n int) {
		if n == 3 {
			cancel()
		}
	}
	if _, err := BruteForceValuations(db, q, &Options{Workers: 4, Context: ctx, Checkpoint: ck}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap := ck.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot after cancelled sweep")
	}
	// The snapshot must show real progress (the final flush ran).
	progressed := false
	for _, s := range snap.Shards {
		if s.Next != s.Lo {
			progressed = true
		}
	}
	if !progressed {
		t.Fatal("cancelled snapshot shows no progress")
	}
	ck2 := NewCheckpointer(64, roundTrip(t, snap))
	got, err := BruteForceValuations(db, q, &Options{Workers: 4, Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("resumed count %v, want %v", got, want)
	}
}

// TestCheckpointerBindsFirstSweepOnly: a second sweep under the same
// Options runs un-checkpointed (acquire is first-wins), so multi-sweep
// plans checkpoint deterministically.
func TestCheckpointerBindsFirstSweepOnly(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	q := cq.MustParseBCQ("R(x, x)")
	ck := NewCheckpointer(1, nil)
	opts := &Options{Workers: 1, Checkpoint: ck}
	if _, err := BruteForceValuations(db, q, opts); err != nil {
		t.Fatal(err)
	}
	first := ck.Snapshot()
	if first == nil {
		t.Fatal("first sweep did not bind the checkpointer")
	}
	if _, err := BruteForceValuations(db, q, opts); err != nil {
		t.Fatal(err)
	}
	second := ck.Snapshot()
	if len(second.Shards) != len(first.Shards) {
		t.Fatal("second sweep rebound the checkpointer")
	}
	for i := range first.Shards {
		if second.Shards[i].Next != first.Shards[i].Next || second.Shards[i].Count != first.Shards[i].Count {
			t.Fatal("second sweep mutated the bound state")
		}
	}
}

// TestSnapshotOfRejectsCorruptEncodings: structural validation of
// canonical blobs coming back from disk.
func TestSnapshotOfRejectsCorruptEncodings(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1))
	eng, err := sweep.Compile(db, cq.MustParseBCQ("R(x)"), sweep.ModeCompletions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SnapshotOf([]uint32{4242}); err == nil {
		t.Error("unknown relation id accepted")
	}
	cur := eng.NewCursor()
	good := cur.AppendCanonical(nil)
	if len(good) > 1 {
		if _, err := eng.SnapshotOf(good[:len(good)-1]); err == nil {
			t.Error("truncated encoding accepted")
		}
	}
	if _, err := eng.SnapshotOf(good); err != nil {
		t.Errorf("valid encoding rejected: %v", err)
	}
}
