package count

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"time"
	"unsafe"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Tests of the uint64 shard tally: its wire form, and the bounds that keep
// it within one word — a tally never exceeds the valuations its shard
// visited, and no swept interval is wider than an int64.

// two128 is a tally no shard can have counted.
var two128 = new(big.Int).Lsh(big.NewInt(1), 128).String()

// TestTallyDecode pins the Tally wire form: the string encoding, the
// legacy bare-number encoding of older checkpoints, the empty tally
// meaning zero, and the rejection of values that are not a word-sized
// count.
func TestTallyDecode(t *testing.T) {
	var sc ShardCheckpoint
	if err := json.Unmarshal([]byte(`{"lo":"0","next":"5","hi":"9","count":"3"}`), &sc); err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Count.value(); !ok || v != 3 {
		t.Fatalf("string tally decoded to %v, %v", v, ok)
	}
	if err := json.Unmarshal([]byte(`{"lo":"0","next":"5","hi":"9","count":42}`), &sc); err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Count.value(); !ok || v != 42 {
		t.Fatalf("legacy numeric tally decoded to %v, %v", v, ok)
	}
	if v, ok := Tally("").value(); !ok || v != 0 {
		t.Fatalf("empty tally decoded to %v, %v", v, ok)
	}
	for _, bad := range []Tally{"not-a-number", "-3", Tally(two128)} {
		if _, ok := bad.value(); ok {
			t.Fatalf("tally %q decoded", bad)
		}
	}
	if tallyOf(0) != "" || tallyOf(7) != "7" {
		t.Fatalf("tallyOf(0) = %q, tallyOf(7) = %q", tallyOf(0), tallyOf(7))
	}
}

// TestShardTallyBound: every consumer of checkpoint state — the local
// restore (ParseCheckpoint), ValidateShardProgress, SweepShardRange and
// MergeCheckpoint — accepts a tally equal to the valuations its shard
// visited and rejects one past it.
func TestShardTallyBound(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 4; i++ { // 2^4 = 16 valuations, every one satisfying
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	eng, err := sweep.Compile(db, cq.MustParseBCQ("R(x)"), sweep.ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	// Each check hands its consumer a shard whose first 8 valuations are
	// visited, tallied as 8 + excess.
	consumers := []struct {
		name  string
		check func(excess uint64) error
	}{
		{"restore", func(excess uint64) error {
			p, err := ParseCheckpoint(eng, &SweepCheckpoint{Space: "16", Shards: []ShardCheckpoint{
				{Lo: "0", Next: "8", Hi: "16", Count: tallyOf(8 + excess)}}})
			if err != nil {
				return err
			}
			if p.ranges[0].t.n != 8 {
				return fmt.Errorf("restored tally %d, want 8", p.ranges[0].t.n)
			}
			return nil
		}},
		{"validate", func(excess uint64) error {
			return ValidateShardProgress(eng, &ShardCheckpoint{Lo: "0", Next: "8", Hi: "16", Count: tallyOf(8 + excess)})
		}},
		{"sweep-range", func(excess uint64) error {
			shard := ShardCheckpoint{Lo: "0", Next: "8", Hi: "16", Count: tallyOf(8 + excess)}
			final, err := SweepShardRange(context.Background(), eng, shard, 0, nil)
			if err == nil && final.Count != "16" {
				return fmt.Errorf("final tally %q, want 16", final.Count)
			}
			return err
		}},
		{"merge", func(excess uint64) error {
			total, err := MergeCheckpoint(eng, &SweepCheckpoint{Space: "16", Shards: []ShardCheckpoint{
				{Lo: "0", Next: "8", Hi: "8", Count: tallyOf(8 + excess)},
				{Lo: "8", Next: "16", Hi: "16", Count: "8"}}})
			if err == nil && total.Cmp(big.NewInt(16)) != 0 {
				return fmt.Errorf("merged count %v, want 16", total)
			}
			return err
		}},
	}
	for _, c := range consumers {
		t.Run(c.name, func(t *testing.T) {
			if err := c.check(0); err != nil {
				t.Errorf("tally at the bound refused: %v", err)
			}
			if err := c.check(1); !errors.Is(err, ErrShardCheckpoint) {
				t.Errorf("tally one past the bound: err = %v, want ErrShardCheckpoint", err)
			}
		})
	}
}

// TestSweepShardRejectsWideInterval: the sweep loop itself refuses an
// interval wider than an int64 rather than counting it down on big.Int.
func TestSweepShardRejectsWideInterval(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 64; i++ { // 2^64 valuations
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	eng, err := sweep.Compile(db, cq.MustParseBCQ("R(x)"), sweep.ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	_, err = sweepShard(eng, context.Background(), new(big.Int), eng.Size(), nil, func(*sweep.Cursor, int64) int64 {
		if visits++; visits < 1000 {
			return 1
		}
		return 0
	})
	if err == nil || visits != 0 {
		t.Fatalf("2^64-wide interval: err = %v after %d visits, want an error before any visit", err, visits)
	}
}

// TestSweepShardRangeRejectsWideInterval: a lease wider than an int64 is
// refused up front instead of swept (the deadline only bounds a
// regression that would start sweeping it).
func TestSweepShardRangeRejectsWideInterval(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 64; i++ { // 2^64 valuations
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	eng, err := sweep.Compile(db, cq.MustParseBCQ("R(x)"), sweep.ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shard := ShardCheckpoint{Lo: "0", Next: "0", Hi: eng.Size().String()}
	if _, err := SweepShardRange(ctx, eng, shard, 0, nil); !errors.Is(err, ErrShardCheckpoint) {
		t.Fatalf("2^64-wide range: err = %v, want ErrShardCheckpoint", err)
	}
}

// TestShardTallyFillsACacheLine: a shard's tally and checkpoint counters
// fill exactly one 64-byte line, so concurrent shards never share one.
func TestShardTallyFillsACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(shardTally{}); n != 64 {
		t.Fatalf("shardTally is %d bytes, want one 64-byte cache line", n)
	}
}
