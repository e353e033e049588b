package count_test

import (
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/dist"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// The validity of a persisted SweepCheckpoint is decided once, by
// count.ParseCheckpoint, for its three consumers: the local resume, the
// merge of a finished table, and the distributed coordinator's recovery
// of a job. This file holds their one table; it is an external test
// package so that it can drive internal/dist, which imports count.

// validityDB is R(?1), …, R(?6) over {a, b, c}: 3^6 = 729 valuations,
// every one satisfying R(x), with 7 distinct completions — so a trusted
// bogus tally or record shows up in the count.
const validityDB = "uniform a b c\nR(?1)\nR(?2)\nR(?3)\nR(?4)\nR(?5)\nR(?6)\n"

// two128 is a tally no shard can have counted.
var two128 = new(big.Int).Lsh(big.NewInt(1), 128).String()

// TestCheckpointInvalidResumeDiscarded is the validity table of the
// three consumers. For every row:
//   - the local resume discards the checkpoint — the sweep runs on fresh
//     geometry — and still returns the exact count;
//   - MergeCheckpoint refuses it with ErrShardCheckpoint;
//   - dist.Coordinator.StartJob starts a fresh lease table.
//
// An incomplete row is a valid partition that is not finished yet: the
// local resume and StartJob continue it instead, and the merge still
// refuses it.
func TestCheckpointInvalidResumeDiscarded(t *testing.T) {
	db, err := core.ParseDatabaseString(validityDB)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseBCQ("R(x)")
	rows := []struct {
		name       string
		comp       bool // a #Comp engine, else #Val
		incomplete bool
		cp         *count.SweepCheckpoint
	}{
		{name: "nil"},
		{name: "no shards", cp: &count.SweepCheckpoint{Space: "729"}},
		{name: "wrong space", cp: &count.SweepCheckpoint{Space: "999", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "100", Hi: "999", Count: "42"}}}},
		{name: "wrong space swept", cp: &count.SweepCheckpoint{Space: "99", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "99", Hi: "99", Count: "1"}}}},
		{name: "comp table on val engine", cp: &count.SweepCheckpoint{Space: "729", Completions: true, Shards: []count.ShardCheckpoint{{Lo: "0", Next: "729", Hi: "729"}}}},
		{name: "comp table with corrupt record on val engine", cp: &count.SweepCheckpoint{Space: "729", Completions: true, Shards: []count.ShardCheckpoint{{Lo: "0", Next: "1", Hi: "729",
			Entries: []count.CompletionRecord{{Canonical: []uint32{9999}}}}}}},
		{name: "val table on comp engine", comp: true, cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "729", Hi: "729", Count: "729"}}}},
		{name: "gap at head", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "5", Next: "100", Hi: "729", Count: "42"}}}},
		{name: "gap at head swept", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "4", Next: "729", Hi: "729", Count: "1"}}}},
		{name: "gap at tail", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "8", Hi: "8", Count: "1"}}}},
		{name: "overlapping shards", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "729", Hi: "729"}, {Lo: "4", Next: "729", Hi: "729"}}}},
		{name: "next past hi", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "800", Hi: "729", Count: "42"}}}},
		{name: "malformed next", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "not-a-number", Hi: "729"}}}},
		{name: "malformed tally", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "729", Hi: "729", Count: "bogus"}}}},
		// Tallies above Next − Lo: one past the bound, and one no word holds.
		{name: "tally above visited", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "100", Hi: "729", Count: "101"}}}},
		{name: "tally above visited swept", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "729", Hi: "729", Count: "730"}}}},
		{name: "tally beyond a word", cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "2", Hi: "729", Count: count.Tally(two128)}}}},
		// A structurally plausible, fully swept table whose records name a
		// relation ID the engine does not have (version skew across a
		// restart).
		{name: "undecodable completion record", comp: true, cp: &count.SweepCheckpoint{Space: "729", Completions: true, Shards: []count.ShardCheckpoint{{Lo: "0", Next: "729", Hi: "729",
			Entries: []count.CompletionRecord{{Canonical: []uint32{987654}}}}}}},
		{name: "incomplete", incomplete: true, cp: &count.SweepCheckpoint{Space: "729", Shards: []count.ShardCheckpoint{{Lo: "0", Next: "8", Hi: "729", Count: "8"}}}},
		{name: "incomplete comp", comp: true, incomplete: true, cp: &count.SweepCheckpoint{Space: "729", Completions: true, Shards: []count.ShardCheckpoint{{Lo: "0", Next: "0", Hi: "300"}, {Lo: "300", Next: "300", Hi: "729"}}}},
	}
	coord := dist.NewCoordinator(dist.Config{})
	defer coord.Close()
	for _, row := range rows {
		t.Run(strings.ReplaceAll(row.name, " ", "_"), func(t *testing.T) {
			run, mode, kind := count.BruteForceValuations, sweep.ModeValuations, "val"
			if row.comp {
				run, mode, kind = count.BruteForceCompletions, sweep.ModeCompletions, "comp"
			}
			want, err := run(db, q, &count.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := sweep.Compile(db, q, mode)
			if err != nil {
				t.Fatal(err)
			}
			size := eng.Size()
			// geometry renders a table's shard intervals.
			geometry := func(cp *count.SweepCheckpoint) string {
				var b strings.Builder
				for _, s := range cp.Shards {
					fmt.Fprintf(&b, "[%s,%s)", s.Lo, s.Hi)
				}
				return b.String()
			}

			ck := count.NewCheckpointer(17, row.cp)
			got, err := run(db, q, &count.Options{Workers: 2, Checkpoint: ck})
			if err != nil {
				t.Fatalf("local resume: %v", err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("local resume: count %v, want %v", got, want)
			}
			resumedFrom := count.NewSweepCheckpoint(size, 2, row.comp)
			if row.incomplete {
				resumedFrom = row.cp
			}
			if g, w := geometry(ck.Snapshot()), geometry(resumedFrom); g != w {
				t.Fatalf("local resume swept %s, want %s", g, w)
			}

			if _, err := count.MergeCheckpoint(eng, row.cp); !errors.Is(err, count.ErrShardCheckpoint) {
				t.Fatalf("MergeCheckpoint err = %v, want ErrShardCheckpoint", err)
			}

			h, err := coord.StartJob(dist.JobSpec{Database: validityDB, Query: "R(x)", Kind: kind}, row.cp)
			if err != nil {
				t.Fatal(err)
			}
			table := h.Checkpoint()
			h.Cancel()
			wantTable := count.NewSweepCheckpoint(size, len(table.Shards), row.comp)
			if row.incomplete {
				wantTable = row.cp
			}
			if !reflect.DeepEqual(table, wantTable) {
				t.Fatalf("StartJob lease table %+v, want %+v", table, wantTable)
			}
		})
	}
}
