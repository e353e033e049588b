package sweep

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Tests of the prefix-state memo: a completion sweep that skips every
// block whose prefix state its memo already holds must see exactly the
// completions, in first-seen order and with the verdicts, that a sweep
// of every valuation sees, from any start to any end.

// memoSweep deduplicates the completions of [lo, hi) by their core-level
// canonical keys, skipping the blocks RepeatSpan grants when memo is set.
// It returns the keys in first-seen order, each with its verdict, the
// number of leaves it did not skip and the number of states it probed.
func memoSweep(t *testing.T, eng *Engine, lo, hi int64, memo bool) (keys []string, leaves, probes int64) {
	t.Helper()
	if lo >= hi {
		return nil, 0, 0
	}
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(lo)); err != nil {
		t.Fatal(err)
	}
	var m *PrefixMemo
	if memo {
		m = eng.NewPrefixMemo()
	}
	seen := map[string]bool{}
	for rest := hi - lo; ; {
		span := int64(1)
		if m != nil {
			span = max(cur.RepeatSpan(m, rest), 1)
		}
		if span > rest {
			t.Fatalf("span %d past the %d valuations left", span, rest)
		}
		if span == 1 {
			leaves++
			if key := cur.Instance().CanonicalKey(); !seen[key] {
				seen[key] = true
				keys = append(keys, fmt.Sprintf("%s:%v", key, cur.Matches()))
			}
		}
		if rest -= span; rest == 0 {
			break
		}
		if !cur.Pass(span) {
			t.Fatalf("space exhausted with %d valuations of [%d, %d) left", rest, lo, hi)
		}
	}
	if m != nil {
		for _, st := range m.stats {
			probes += st.probes
		}
		m.Release()
	}
	return keys, leaves, probes
}

// memoQueries covers the compiled fragment and an opaque query: the memo
// reasons about completions, not verdicts.
var memoQueries = []cq.Query{
	cq.MustParseBCQ("R(x, y) ∧ S(y)"),
	cq.MustParseBCQ("R(x, x)"),
	cq.MustParse("S(x) | T(y, y)"),
	&cq.Negation{Inner: cq.MustParseBCQ("R(x, y)")},
	cq.MustParse("R(x, y) ∧ x ≠ y"),
	cq.Tautology{},
	&cq.Func{Name: "has-3-facts", F: func(i *core.Instance) bool { return i.Size() >= 3 }},
}

// TestRepeatSpanMatchesStepping: on random databases, every compile
// variant and random [lo, hi) ranges that start and end inside prefix
// blocks, the memo sweep sees the stepping sweep's completion sequence.
func TestRepeatSpanMatchesStepping(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 20
	}
	var leaves, valuations int64
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, int(seed%3))
		for qi, q := range memoQueries {
			for _, o := range variantOpts {
				eng, err := CompileWith(db, q, ModeCompletions, o)
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
					got, n, _ := memoSweep(t, eng, lo, hi, true)
					if want, _, _ := memoSweep(t, eng, lo, hi, false); !slices.Equal(got, want) {
						t.Fatalf("seed %d q%d %v %+v [%d, %d): memo sweep saw %v, stepping %v, db:\n%s",
							seed, qi, q, o, lo, hi, got, want, db)
					}
					leaves += n
					valuations += hi - lo
				}
			}
		}
	}
	if leaves >= valuations {
		t.Fatalf("no prefix block was ever skipped: %d leaves for %d valuations", leaves, valuations)
	}
}

// memoShapeDB builds the shapes whose memo behaviour is pinned below, all
// over {a, b}: sweep-comp is R(?1), S(?2), …, R(?11), S(?12) and
// T(?13, ?14); the n-cycle R(?1, ?2), …, R(?n, ?1) and the star
// R(?i, ?n) come from cycleStarDB; injective is R(?i, c_i), i ≤ n.
func memoShapeDB(shape string, n int) *core.Database {
	switch shape {
	case "cycle", "star":
		return cycleStarDB(n, shape == "star")
	}
	db := core.NewUniformDatabase([]string{"a", "b"})
	if shape == "injective" {
		for i := 1; i <= n; i++ {
			db.MustAddFact("R", core.Null(core.NullID(i)), core.Const(fmt.Sprintf("c%d", i)))
		}
		return db
	}
	for i := 0; i < 6; i++ {
		db.MustAddFact("R", core.Null(core.NullID(2*i+1)))
		db.MustAddFact("S", core.Null(core.NullID(2*i+2)))
	}
	db.MustAddFact("T", core.Null(13), core.Null(14))
	return db
}

// TestPrefixMemoShapes pins the memo's geometry and reach. sweep-comp
// memoizes depths 1–12, with no live digit, and evaluates one leaf per
// distinct completion, 36 of 2^14, probing the widest repeated block
// first: 170 states, where probing only depth 12 would take 2^12. The
// n-cycle memoizes depths 3..n−1,
// from the first that absorbs a digit (?2, whose two facts are then
// ready); ?1 and the newest digit stay live. The star keeps every digit
// live until its last depth and gets no memo. Injective R(?i, c_i) never
// repeats a state: each depth is probed memoTrial times and then
// dropped, and every valuation is a leaf.
func TestPrefixMemoShapes(t *testing.T) {
	compile := func(shape string, n int) *Engine {
		t.Helper()
		eng, err := Compile(memoShapeDB(shape, n), cq.Tautology{}, ModeCompletions)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := compile("sweep-comp", 0)
	for i, md := range eng.memoDepths {
		if md.depth != int32(i+1) || len(md.live) != 0 || len(eng.memoDepths) != 12 {
			t.Fatalf("sweep-comp memo depths %v, want 1..12 with no live digit", eng.memoDepths)
		}
	}
	if keys, leaves, probes := memoSweep(t, eng, 0, 1<<14, true); len(keys) != 36 || leaves != 36 || probes != 170 {
		t.Fatalf("sweep-comp: %d completions in %d leaves and %d probes, want 36 in 36 and 170", len(keys), leaves, probes)
	}

	eng = compile("cycle", 12)
	for i, md := range eng.memoDepths {
		k := int32(i + 3)
		if md.depth != k || !slices.Equal(md.live, []int32{0, k - 1}) || len(eng.memoDepths) != 9 {
			t.Fatalf("12-cycle memo depths %v, want 3..11 with live digits 0 and k−1", eng.memoDepths)
		}
	}

	if m := compile("star", 12).NewPrefixMemo(); m != nil {
		t.Fatal("the star got a prefix memo")
	}
	for _, mode := range []Mode{ModeValuations, ModeSample} {
		eng, err := Compile(memoShapeDB("sweep-comp", 0), cq.Tautology{}, mode)
		if err != nil {
			t.Fatal(err)
		}
		if eng.NewPrefixMemo() != nil {
			t.Fatalf("mode %v engine got a prefix memo", mode)
		}
	}

	eng = compile("injective", 12)
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	m := eng.NewPrefixMemo()
	for {
		if span := cur.RepeatSpan(m, 1<<12); span != 0 {
			t.Fatalf("injective: a block of %d repeated a state", span)
		}
		if !cur.Step() {
			break
		}
	}
	for i, st := range m.stats {
		if st.saved != 0 || st.probes > memoTrial || (st.probes == memoTrial) != st.off {
			t.Fatalf("injective memo depth %d: %+v, want no hit and at most %d probes", eng.memoDepths[i].depth, st, memoTrial)
		}
	}
}

// TestPrefixMemoBudget grows a memo with synthetic entries until reserve
// refuses: the table, entries and key arena never exceed memoBudget
// bytes. A full memo records no further state, so an empty full memo
// never grants a span.
func TestPrefixMemoBudget(t *testing.T) {
	eng, err := Compile(memoShapeDB("cycle", 12), cq.Tautology{}, ModeCompletions)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.NewPrefixMemo()
	bytes := func() int { return 4*cap(m.keys) + memoEntryBytes*cap(m.entries) + 4*len(m.table) }
	r := rand.New(rand.NewSource(1))
	for n := 0; ; n++ {
		words := 1 + r.Intn(40)
		if !m.reserve(words) {
			if n < 1000 {
				t.Fatalf("reserve refused after %d entries, %d bytes", n, bytes())
			}
			break
		}
		h := r.Uint64()
		s := uint32(h) & m.mask
		for m.table[s] >= 0 {
			s = (s + 1) & m.mask
		}
		m.table[s] = int32(len(m.entries))
		m.entries = append(m.entries, memoEntry{h: h, off: int32(len(m.keys))})
		m.keys = append(m.keys, make([]uint32, words)...)
		if b := bytes(); b > memoBudget {
			t.Fatalf("memo holds %d bytes after %d entries, budget %d", b, n+1, memoBudget)
		}
	}
	m.Release()

	m = eng.NewPrefixMemo()
	m.full = true
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	for {
		if span := cur.RepeatSpan(m, 1<<12); span != 0 {
			t.Fatalf("a memo that recorded nothing granted a span of %d", span)
		}
		if !cur.Step() {
			break
		}
	}
	if len(m.entries) != 0 {
		t.Fatalf("a full memo recorded %d states", len(m.entries))
	}
}
