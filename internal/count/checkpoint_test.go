package count

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
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
// resumes from a snapshot that still had work left: shards only poll for
// cancellation every cancelCheckInterval leaves, so a sweep of few
// leaves can finish every shard before a kill lands.
func runWithKills(t *testing.T, r *rand.Rand, db *core.Database, q cq.Query, workers int, completions bool) (*big.Int, []*compEntry, int) {
	t.Helper()
	var resume *SweepCheckpoint
	resumes := 0
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
			merged []*compEntry
			err    error
		)
		if completions {
			merged, err = bruteCompletionSweep(db, q, opts, false)
		} else {
			n, err = BruteForceValuations(db, q, opts)
		}
		cancel()
		if err == nil {
			return n, merged, resumes
		}
		if err != context.Canceled {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		resume = roundTrip(t, ck.Snapshot())
		for _, s := range resume.Shards {
			if s.Next != s.Hi {
				resumes++
				break
			}
		}
	}
}

// completionSig renders merged completions as an exact sequence of
// (canonical encoding, verdict) pairs — order included, since first-seen
// order is part of the contract.
func completionSig(entries []*compEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
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
				resumesV, resumesC := 0, 0
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
					resumesV += nV
					resumesC += nC
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
				// Each kind must resume mid-sweep on its own: a sweep that
				// outruns its kills would drop its coverage silently.
				if resumesV == 0 || resumesC == 0 {
					t.Fatalf("%d #Val and %d #Comp sweeps killed and resumed mid-sweep — the property was not exercised for both", resumesV, resumesC)
				}
			})
		}
	}
}

// TestCheckpointResumeHonoursWorkers: a resumed sweep holds at most
// Options.Workers ranges in flight, however many ranges its checkpoint
// has — a recovered distributed lease table can have hundreds, each with
// its own cursor, dedup table and prefix memo. A 64-range fresh table is
// resumed at one and two workers, for #Val and #Comp, on a star whose
// every range really sweeps; the peak number of goroutines, sampled at
// each range's completion, may exceed the count before the sweep by at
// most Workers, and the count must equal a fresh sweep's.
func TestCheckpointResumeHonoursWorkers(t *testing.T) {
	db := skipStarDB(16) // 2^16 valuations: 64 ranges of 1024
	q := cq.MustParseBCQ("R(x, x)")
	for _, completions := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			run := BruteForceValuations
			if completions {
				run = BruteForceCompletions
			}
			want, err := run(db, q, &Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			base := runtime.NumGoroutine()
			peak, reports := 0, 0
			ck := NewCheckpointer(0, NewSweepCheckpoint(big.NewInt(1<<16), 64, completions))
			got, err := run(db, q, &Options{Workers: workers, Checkpoint: ck, Progress: func(done, total int) {
				peak = max(peak, runtime.NumGoroutine())
				reports++
			}})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("completions=%v workers=%d: resumed count %v, want %v", completions, workers, got, want)
			}
			if reports != 65 {
				t.Fatalf("completions=%v workers=%d: %d progress reports, want 65 (the table was not resumed)", completions, workers, reports)
			}
			if extra := peak - base; extra > workers {
				t.Fatalf("completions=%v workers=%d: %d goroutines beyond the caller's at peak, want at most %d", completions, workers, extra, workers)
			}
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
