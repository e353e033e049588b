package sweep

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Tests of the witness-block skip: a sweep that counts a satisfied leaf's
// MatchSpan and moves on with Pass must count exactly what a sweep that
// evaluates every valuation counts, on every compile variant, from any
// start to any end.

// spanCount counts the satisfying valuations of [lo, hi) the way the count
// layer's shard loop does, and returns the count with the number of
// leaves it evaluated.
func spanCount(t *testing.T, eng *Engine, lo, hi int64) (sat, leaves int64) {
	t.Helper()
	if lo >= hi {
		return 0, 0
	}
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(lo)); err != nil {
		t.Fatal(err)
	}
	for rest := hi - lo; ; {
		ok, span := cur.MatchSpan(rest)
		leaves++
		if span < 1 || span > rest {
			t.Fatalf("span %d outside [1, %d]", span, rest)
		}
		if ok {
			sat += span
		} else if span != 1 {
			t.Fatalf("unsatisfied leaf spans %d", span)
		}
		if rest -= span; rest == 0 {
			return sat, leaves
		}
		if !cur.Pass(span) {
			t.Fatalf("space exhausted with %d valuations of [%d, %d) left", rest, lo, hi)
		}
	}
}

// stepCount is the reference: the verdict of every valuation of [lo, hi).
func stepCount(t *testing.T, eng *Engine, lo, hi int64) int64 {
	t.Helper()
	if lo >= hi {
		return 0
	}
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(lo)); err != nil {
		t.Fatal(err)
	}
	var sat int64
	for i := lo; i < hi; i++ {
		if cur.Matches() {
			sat++
		}
		cur.Step()
	}
	return sat
}

// cycleStarDB returns R(x, x)'s two extreme shapes over {a, b}: the
// n-cycle R(?1, ?2), …, R(?n, ?1), and the star R(?i, ?n), i < n.
func cycleStarDB(n int, star bool) *core.Database {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= n; i++ {
		switch {
		case !star:
			db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%n+1)))
		case i < n:
			db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(n)))
		}
	}
	return db
}

// TestMatchSpanCycleAndStar pins the skip's reach on the two shapes: the
// even 16-cycle finds its witnesses on early digits and is counted in a
// few dozen leaves, while every witness of the star holds the last digit
// and the sweep evaluates all 2^16 valuations. Both count 2^16 − 2.
func TestMatchSpanCycleAndStar(t *testing.T) {
	q := cq.MustParseBCQ("R(x, x)")
	for _, star := range []bool{false, true} {
		for _, o := range variantOpts {
			eng, err := CompileWith(cycleStarDB(16, star), q, ModeValuations, o)
			if err != nil {
				t.Fatal(err)
			}
			sat, leaves := spanCount(t, eng, 0, 1<<16)
			if sat != 1<<16-2 {
				t.Fatalf("star=%v %+v: #Val %d, want %d", star, o, sat, 1<<16-2)
			}
			if star && leaves != 1<<16 {
				t.Fatalf("star %+v: %d leaves, want all %d", o, leaves, 1<<16)
			}
			if !star && leaves > 64 {
				t.Fatalf("cycle %+v: %d leaves, want at most 64", o, leaves)
			}
		}
	}
}

// wideDB builds relations wide enough for the multi-word bitset paths
// (four or more 64-fact words): ground facts that can never satisfy the
// skip queries on their own, plus a few facts over nulls ?1..?nulls with
// domains in {a, b}, so matches and their witness depths come from the
// nulls.
func wideDB(r *rand.Rand, nulls int) *core.Database {
	db := core.NewUniformDatabase([]string{"a", "b"})
	k := func(i int) core.Value { return core.Const(fmt.Sprintf("k%d", i)) }
	for i := 0; i < 260; i++ {
		db.MustAddFact("R", k(i), k(1000+i))
		db.MustAddFact("S", k(2000+i))
		db.MustAddFact("T", k(3000+i), k(4000+i))
		db.MustAddFact("Q", k(5000+i), k(6000+i), k(7000+i))
	}
	arg := func() core.Value {
		if r.Intn(4) == 0 {
			return core.Const([]string{"a", "b"}[r.Intn(2)])
		}
		return core.Null(core.NullID(1 + r.Intn(nulls)))
	}
	for i := 0; i < 3; i++ {
		db.MustAddFact("R", arg(), arg())
		db.MustAddFact("S", arg())
		db.MustAddFact("T", arg(), arg())
		db.MustAddFact("Q", arg(), arg(), arg())
	}
	return db
}

// skipQueries covers every evaluator path that records a witness depth:
// the flat verdict with one, two and three equality masks, existence-only
// atoms with position checks, candidate scans with later atoms, unions,
// inequalities and TRUE — plus the negations that must never skip.
var skipQueries = append([]cq.Query{
	cq.MustParse("Q(x, x, x)"),
	cq.MustParse("Q(x, x, y) ∧ Q(y, y, y)"),
	cq.MustParse("R(x, y) ∧ T(y, y)"),
	cq.MustParse("T(x, x) ∧ S(x)"),
	cq.MustParse("R(x, y) ∧ Q(y, y, x)"),
	cq.MustParse("R(x, y)"),
	cq.Tautology{},
	&cq.Negation{Inner: cq.MustParse("S(x) | T(y, y)")},
	&cq.Negation{Inner: cq.Tautology{}},
}, bitsetQueries...)

// TestMatchSpanMatchesStepping: on random small and wide databases, every
// compile variant, and random [lo, hi) ranges that start and end inside
// witness blocks, the skipping count equals the stepping count.
func TestMatchSpanMatchesStepping(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 12
	}
	var leaves, valuations int64
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		var db *core.Database
		if seed%4 == 3 {
			db = wideDB(r, 6+r.Intn(5))
		} else {
			db = randDB(r, int(seed%3))
		}
		for qi, q := range skipQueries {
			for _, o := range variantOpts {
				eng, err := CompileWith(db, q, ModeValuations, o)
				if err != nil {
					t.Fatal(err)
				}
				size := eng.Size().Int64()
				for trial := 0; trial < 3; trial++ {
					lo, hi := int64(0), size
					if trial > 0 && size > 0 {
						lo, hi = r.Int63n(size), r.Int63n(size+1)
						if lo > hi {
							lo, hi = hi, lo
						}
					}
					got, n := spanCount(t, eng, lo, hi)
					if want := stepCount(t, eng, lo, hi); got != want {
						t.Fatalf("seed %d q%d %v %+v [%d, %d): skipping count %d, stepping %d, db:\n%s",
							seed, qi, q, o, lo, hi, got, want, db)
					}
					leaves += n
					valuations += hi - lo
				}
			}
		}
	}
	if leaves >= valuations {
		t.Fatalf("no witness block was ever skipped: %d leaves for %d valuations", leaves, valuations)
	}
}
