package count

import (
	"context"
	"encoding/json"
	"errors"
	"math/big"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// FuzzCheckpointInput carries the "arbitrary input never panics"
// invariant to checkpoint state, which is outside input: worker partials
// on /cluster/progress, and lease tables and local checkpoints read back
// from a job directory. Arbitrary bytes decode as a SweepCheckpoint, and
// its first shard as a ShardCheckpoint; both run against a #Val engine
// (2^4 relevant valuations, one null pruned into a ×2 multiplier) and a
// #Comp engine (2^5 valuations), small enough that the fuzzer can
// minimize whole tables. ValidateShardProgress, SweepShardRange,
// MergeCheckpoint and a resumed local sweep must not panic; every error
// must wrap ErrShardCheckpoint; a resumed #Val count must lie in
// [0, TotalSize]; and a merge may succeed only on a complete partition,
// with the count a resumed sweep folds the same table to.
func FuzzCheckpointInput(f *testing.F) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("R", core.Null(2), core.Null(3))
	db.MustAddFact("S", core.Null(3))
	db.MustAddFact("S", core.Null(4))
	db.MustAddFact("T", core.Null(5)) // outside the query: pruned on #Val
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	engines := make(map[bool]*sweep.Engine)
	for _, completions := range []bool{false, true} {
		mode := sweep.ModeValuations
		if completions {
			mode = sweep.ModeCompletions
		}
		eng, err := sweep.Compile(db, q, mode)
		if err != nil {
			f.Fatal(err)
		}
		engines[completions] = eng

		// Seeds: a fresh table, one with its first range swept, and a
		// finished one.
		cp := NewSweepCheckpoint(eng.Size(), 3, completions)
		for i := 0; i <= len(cp.Shards); i++ {
			blob, err := json.Marshal(cp)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
			if i < len(cp.Shards) {
				if cp.Shards[i], err = SweepShardRange(context.Background(), eng, cp.Shards[i], 0, nil); err != nil {
					f.Fatal(err)
				}
			}
		}
	}
	f.Add([]byte(`{"space":"16","shards":[{"lo":"0","next":"10","hi":"16","count":4}]}`))
	f.Add([]byte(`{"space":"32","completions":true,"shards":[{"lo":"0","next":"32","hi":"32","entries":[{"hlo":1,"hhi":2,"canonical":[0,1,2],"sat":true}]}]}`))
	f.Add([]byte(`{"space":"16","shards":[{"lo":"0","next":"8","hi":"8"},{"lo":"8","next":"16","hi":"16","count":"9"}]}`))

	f.Fuzz(func(t *testing.T, blob []byte) {
		var cp SweepCheckpoint
		if json.Unmarshal(blob, &cp) != nil {
			return
		}
		var shard ShardCheckpoint
		if len(cp.Shards) > 0 {
			shard = cp.Shards[0]
		}
		for completions, eng := range engines {
			wrapped := func(what string, err error) {
				if err != nil && !errors.Is(err, ErrShardCheckpoint) {
					t.Fatalf("completions=%v: %s: %v does not wrap ErrShardCheckpoint", completions, what, err)
				}
			}
			wrapped("ValidateShardProgress", ValidateShardProgress(eng, &shard))
			_, err := SweepShardRange(context.Background(), eng, shard, 5, func(ShardCheckpoint) error { return nil })
			wrapped("SweepShardRange", err)
			merged, err := MergeCheckpoint(eng, &cp)
			wrapped("MergeCheckpoint", err)
			if err == nil && !completePartition(eng, &cp) {
				t.Fatalf("completions=%v: MergeCheckpoint accepted %s, not a complete partition", completions, blob)
			}

			run := BruteForceValuations
			if completions {
				run = BruteForceCompletions
			}
			got, err := run(db, q, &Options{Workers: 2, Checkpoint: NewCheckpointer(5, &cp)})
			if err != nil {
				t.Fatalf("completions=%v: resumed sweep: %v", completions, err)
			}
			if !completions && (got.Sign() < 0 || got.Cmp(eng.TotalSize()) > 0) {
				t.Fatalf("resumed #Val %v outside [0, %v]", got, eng.TotalSize())
			}
			if merged != nil && got.Cmp(merged) != 0 {
				t.Fatalf("completions=%v: resumed sweep of a finished table %v, merge %v", completions, got, merged)
			}
		}
	})
}

// completePartition reports, independently of ParseCheckpoint, whether
// cp names eng's space and mode and its shards tile [0, Size) in index
// order with every range swept to its end — the only tables a merge may
// accept.
func completePartition(eng *sweep.Engine, cp *SweepCheckpoint) bool {
	size := eng.Size()
	if cp.Space != size.String() || cp.Completions != (eng.Mode() == sweep.ModeCompletions) || len(cp.Shards) == 0 {
		return false
	}
	prev := new(big.Int)
	for _, s := range cp.Shards {
		lo, ok1 := new(big.Int).SetString(s.Lo, 10)
		next, ok2 := new(big.Int).SetString(s.Next, 10)
		hi, ok3 := new(big.Int).SetString(s.Hi, 10)
		if !ok1 || !ok2 || !ok3 || lo.Cmp(prev) != 0 || hi.Cmp(lo) < 0 || next.Cmp(hi) != 0 {
			return false
		}
		prev = hi
	}
	return prev.Cmp(size) == 0
}
