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

// Tests of the witness-block skip at the counting layer: every sweep that
// advances by spans — plain, sharded, checkpointed and killed, leased by
// SweepShardRange, and the early-exit decision sweeps — must agree with
// references that evaluate every valuation.

// skipQueries spans the monotone fragment the skip applies to (BCQ, UCQ,
// ≠, TRUE) and the negations it must leave alone.
var skipQueries = []cq.Query{
	cq.MustParseBCQ("R(x, x)"),
	cq.MustParseBCQ("R(x, y) ∧ S(y)"),
	cq.MustParseBCQ("R(x, y) ∧ T(y, x)"),
	cq.MustParse("S(x) | T(y, y)"),
	cq.MustParse("R(x, x) | T(a, b)"),
	cq.MustParse("R(x, y) ∧ x ≠ y"),
	cq.MustParse("R(x, y) ∧ S(z) ∧ x ≠ z"),
	&cq.Negation{Inner: cq.MustParseBCQ("R(x, x)")},
	&cq.Negation{Inner: cq.MustParseBCQ("S(x) ∧ R(x, y)")},
	cq.Tautology{},
}

// skipDB builds a random database of the given kind (0 naïve, 1 Codd,
// 2 uniform) over R/2, S/1 and T/2 with at most eight nulls. The schema is
// walked in a fixed order, so a seed always gives the same database.
func skipDB(r *rand.Rand, kind int) *core.Database {
	consts := []string{"a", "b", "c"}
	var db *core.Database
	if kind == 2 {
		db = core.NewUniformDatabase(consts[:2+r.Intn(2)])
	} else {
		db = core.NewDatabase()
	}
	next := 1
	for _, rel := range []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 1}, {"T", 2}} {
		for i, nf := 0, 1+r.Intn(4); i < nf; i++ {
			args := make([]core.Value, rel.arity)
			for j := range args {
				switch x := r.Intn(3); {
				case next <= 8 && (kind == 1 && x > 0 || x == 0):
					args[j] = core.Null(core.NullID(next))
					if kind != 2 {
						db.SetDomain(core.NullID(next), consts[r.Intn(2):2+r.Intn(2)])
					}
					next++
				case kind != 1 && next > 1 && x == 1:
					args[j] = core.Null(core.NullID(1 + r.Intn(next-1)))
				default:
					args[j] = core.Const(consts[r.Intn(len(consts))])
				}
			}
			db.MustAddFact(rel.name, args...)
		}
	}
	return db
}

// skipCycleDB is the n-cycle R(?1, ?2), …, R(?n, ?1) over the uniform
// domain dom, plus chords between cycle positions (0-based).
func skipCycleDB(n int, dom []string, chords ...[2]int) *core.Database {
	db := core.NewUniformDatabase(dom)
	for i := 0; i < n; i++ {
		db.MustAddFact("R", core.Null(core.NullID(1+i)), core.Null(core.NullID(1+(i+1)%n)))
	}
	for _, c := range chords {
		db.MustAddFact("R", core.Null(core.NullID(1+c[0])), core.Null(core.NullID(1+c[1])))
	}
	return db
}

// skipStarDB is the star R(?i, ?n), i < n, over {a, b}: #Val of R(x, x)
// is 2^n − 2, and every witness holds ?n, the sweep's last digit, so a
// sweep of it visits every valuation.
func skipStarDB(n int) *core.Database {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i < n; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(n)))
	}
	return db
}

// stepRange is the non-skipping reference over [lo, hi) of eng's
// enumerated space: the verdict of every valuation, stepped one by one.
func stepRange(t *testing.T, eng *sweep.Engine, lo, hi int64) uint64 {
	t.Helper()
	if lo >= hi {
		return 0
	}
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(lo)); err != nil {
		t.Fatal(err)
	}
	var n uint64
	for i := lo; i < hi; i++ {
		if cur.Matches() {
			n++
		}
		cur.Step()
	}
	return n
}

// spanRange runs the counting layer's shard loop over [lo, hi) and
// returns the tally with the number of leaves it evaluated.
func spanRange(t *testing.T, eng *sweep.Engine, lo, hi int64) (tally uint64, leaves int64) {
	t.Helper()
	var st shardTally
	_, err := sweepShard(eng, context.Background(), big.NewInt(lo), big.NewInt(hi), nil, func(cur *sweep.Cursor, rest int64) int64 {
		leaves++
		_, span := st.leaf(cur, rest)
		return span
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.n, leaves
}

// TestSkipMatchesReference is the bit-identity matrix: naïve, Codd and
// uniform databases × every query shape × 1 and 4 workers, against the
// Apply-based reference; IsCertain and IsPossible agree on the same
// matrix.
func TestSkipMatchesReference(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	var leaves, valuations int64
	for kind, name := range []string{"naive", "codd", "uniform"} {
		for qi, q := range skipQueries {
			for seed := int64(0); seed < seeds; seed++ {
				r := rand.New(rand.NewSource(seed*131 + int64(qi)))
				db := skipDB(r, kind)
				want := refValuations(t, db, q)
				total, err := db.NumValuations()
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 4} {
					got, err := BruteForceValuations(db, q, &Options{Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("%s seed %d q=%v workers %d: #Val %v, reference %v, db:\n%s", name, seed, q, w, got, want, db)
					}
				}
				certain, err := IsCertain(db, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				possible, err := IsPossible(db, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				if certain != (want.Cmp(total) == 0) || possible != (want.Sign() > 0) {
					t.Fatalf("%s seed %d q=%v: certain %v possible %v, reference %v of %v", name, seed, q, certain, possible, want, total)
				}
				eng, err := sweep.Compile(db, q, sweep.ModeValuations)
				if err != nil {
					t.Fatal(err)
				}
				size := eng.Size().Int64()
				_, n := spanRange(t, eng, 0, size)
				leaves += n
				valuations += size
			}
		}
	}
	if leaves >= valuations {
		t.Fatalf("no witness block was ever skipped: %d leaves for %d valuations", leaves, valuations)
	}
}

// TestSkipCheckpointKillResumeCycle kills and resumes a checkpointed
// cycle-shaped sweep — where the skip passes over most of the space — at
// random publish counts. The 13-cycle over three constants has
// 3^13 − (2^13 − 2) valuations with an equal adjacent pair, and its
// proper colourings keep every shard busy past the cancellation poll.
func TestSkipCheckpointKillResumeCycle(t *testing.T) {
	db := skipCycleDB(13, []string{"a", "b", "c"})
	q := cq.MustParseBCQ("R(x, x)")
	want := big.NewInt(1594323 - 8190)
	for _, workers := range []int{1, 4} {
		r := rand.New(rand.NewSource(int64(workers)))
		resumes := 0
		for round := 0; round < 3; round++ {
			got, _, n := runWithKills(t, r, db, q, workers, false)
			if got.Cmp(want) != 0 {
				t.Fatalf("workers %d round %d: resumed #Val %v, want %v", workers, round, got, want)
			}
			resumes += n
		}
		if resumes == 0 {
			t.Fatalf("workers %d: no sweep was killed and resumed", workers)
		}
	}
}

// TestSkipShardRangeCycle sweeps leases of the sweep-val shape (a
// 16-cycle with chords, bipartite, #Val = 2^16 − 2) whose bounds fall
// inside witness blocks: each range's tally must match the Apply-based
// reference over exactly that range, and a random partition swept with
// worker kills and re-issues must merge to the exact count.
func TestSkipShardRangeCycle(t *testing.T) {
	db := skipCycleDB(16, []string{"a", "b"}, [2]int{0, 5}, [2]int{3, 10}, [2]int{6, 13})
	q := cq.MustParseBCQ("R(x, x)")
	eng := distEngine(t, db, q, false)
	const size = 1 << 16
	// prefix[i] counts the satisfying valuations of [0, i), by Apply.
	space, err := db.ValuationSpace()
	if err != nil {
		t.Fatal(err)
	}
	prefix := make([]uint64, 0, size+1)
	prefix = append(prefix, 0)
	err = space.Range(big.NewInt(0), big.NewInt(size), func(v core.Valuation) bool {
		n := prefix[len(prefix)-1]
		if q.Eval(db.Apply(v)) {
			n++
		}
		prefix = append(prefix, n)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 40; trial++ {
		lo, hi := r.Int63n(size), r.Int63n(size+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		from, to := fmt.Sprint(lo), fmt.Sprint(hi)
		final, err := SweepShardRange(context.Background(), eng, ShardCheckpoint{Lo: from, Next: from, Hi: to}, 1+r.Int63n(64), func(ShardCheckpoint) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if want := tallyOf(prefix[hi] - prefix[lo]); final.Count != want || final.Next != to {
			t.Fatalf("range [%d, %d): tally %q next %s, want %q next %d", lo, hi, final.Count, final.Next, want, hi)
		}
	}
	for trial := 0; trial < 5; trial++ {
		cuts := []int64{0, size}
		for i := 0; i < 1+r.Intn(6); i++ {
			cuts = append(cuts, r.Int63n(size))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		cp := &SweepCheckpoint{Space: fmt.Sprint(size)}
		for i := 0; i+1 < len(cuts); i++ {
			lo := fmt.Sprint(cuts[i])
			cp.Shards = append(cp.Shards, ShardCheckpoint{Lo: lo, Next: lo, Hi: fmt.Sprint(cuts[i+1])})
		}
		cp = sweepAllRanges(t, eng, cp, 1+r.Int63n(8), 2)
		got, err := MergeCheckpoint(eng, cp)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(big.NewInt(size-2)) != 0 {
			t.Fatalf("partition %v: merged #Val %v, want %d", cuts, got, size-2)
		}
	}
}

// FuzzSkipMatchesFullSweep drives random naïve, Codd and uniform
// databases, the skipQueries shapes and random [lo, hi) ranges through
// the counting layer's span loop, and requires the count a stepping sweep
// of the same range gives; over the whole space the sharded count must
// equal the Apply-based reference.
func FuzzSkipMatchesFullSweep(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), uint16(65535))
	f.Add(int64(7), uint8(1), uint8(4), uint16(911), uint16(20))
	f.Add(int64(42), uint8(2), uint8(7), uint16(3), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, kind, qsel uint8, lo, hi uint16) {
		r := rand.New(rand.NewSource(seed))
		db := skipDB(r, int(kind%3))
		q := skipQueries[int(qsel)%len(skipQueries)]
		eng, err := sweep.Compile(db, q, sweep.ModeValuations)
		if err != nil {
			t.Fatal(err)
		}
		size := eng.Size().Int64()
		l, h := int64(lo)%(size+1), int64(hi)%(size+1)
		if l > h {
			l, h = h, l
		}
		if got, _ := spanRange(t, eng, l, h); got != stepRange(t, eng, l, h) {
			t.Fatalf("q=%v [%d, %d): skipping tally %d, stepping %d, db:\n%s", q, l, h, got, stepRange(t, eng, l, h), db)
		}
		want := refValuations(t, db, q)
		got, err := BruteForceValuations(db, q, &Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("q=%v: #Val %v, reference %v, db:\n%s", q, got, want, db)
		}
	})
}
