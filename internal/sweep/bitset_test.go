package sweep

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Tests pinning the bitset-compiled membership kernel against the scalar
// evaluator: for any engine, a sweep with the compiled bitmaps must
// produce exactly the verdict sequence of the same engine with bitsets
// disabled — across query shapes (BCQ, UCQ, negation, inequality),
// database styles, and random mutations followed by a recompile.

// bitsetQueries spans the program shapes the bitset compiler classifies
// differently: bound-variable checks, repeated-variable equality masks
// (including the single-atom flat-verdict path), disjunction, negation,
// and inequalities (which suppress the exist-only shortcut).
var bitsetQueries = []cq.Query{
	cq.MustParseBCQ("R(x, x)"), // flat verdict: one atom, equality mask only
	cq.MustParseBCQ("R(x, y) ∧ S(y)"),
	cq.MustParseBCQ("R(x, y) ∧ T(y, x)"),
	cq.MustParse("S(x) | T(y, y)"),
	cq.MustParse("R(x, x) | R(x, y) ∧ S(x)"),
	&cq.Negation{Inner: cq.MustParseBCQ("R(x, x)")},
	cq.MustParse("R(x, y) ∧ x ≠ y"),
	cq.MustParse("R(x, y) ∧ S(z) ∧ x ≠ z"),
}

// compareBitsetScalar sweeps both engines in lockstep and requires
// identical verdicts at every index; bit is expected to carry the bitmap
// plan, sc to run the scalar evaluator.
func compareBitsetScalar(t *testing.T, seed int64, step int, bit, sc *Engine) {
	t.Helper()
	if bit.Size().Cmp(sc.Size()) != 0 {
		t.Fatalf("seed %d step %d: sizes diverge: %v vs %v", seed, step, bit.Size(), sc.Size())
	}
	size := bit.Size()
	if size.Sign() == 0 {
		return
	}
	bc, scc := bit.NewCursor(), sc.NewCursor()
	if err := bc.Seek(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	if err := scc.Seek(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); ; i++ {
		if bc.Matches() != scc.Matches() {
			t.Fatalf("seed %d step %d index %d: bitset verdict %v, scalar %v",
				seed, step, i, bc.Matches(), scc.Matches())
		}
		// Spot-check Seek against incremental Step on the bitset engine:
		// seeking rebuilds the cursor bitmaps from scratch.
		if i%37 == 0 {
			chk := bit.NewCursor()
			if err := chk.Seek(big.NewInt(i)); err != nil {
				t.Fatal(err)
			}
			if chk.Matches() != bc.Matches() {
				t.Fatalf("seed %d step %d index %d: Seek verdict %v, Step verdict %v",
					seed, step, i, chk.Matches(), bc.Matches())
			}
		}
		bs, ss := bc.Step(), scc.Step()
		if bs != ss {
			t.Fatalf("seed %d step %d index %d: Step exhaustion diverges", seed, step, i)
		}
		if !bs {
			return
		}
	}
}

// TestBitsetMatchesScalar is the property test: random databases ×
// bitsetQueries, sweeping the default (bitset) engine against the same
// compile with DisableBitsets, then after each batch of random mutations
// recompiling both and re-comparing.
func TestBitsetMatchesScalar(t *testing.T) {
	bitsetSeen := 0
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, int(seed%3))
		q := bitsetQueries[r.Intn(len(bitsetQueries))]
		bit, sc := compileBitsetScalar(t, db, q)
		if sc.Bitset() {
			t.Fatal("DisableBitsets compiled a bitset plan")
		}
		if bit.Bitset() {
			bitsetSeen++
		}
		compareBitsetScalar(t, seed, -1, bit, sc)

		mr := rand.New(rand.NewSource(seed * 101))
		for step := 0; step < 4; step++ {
			for n := 1 + mr.Intn(3); n > 0; n-- {
				mutateRandom(mr, db)
			}
			bit, sc = compileBitsetScalar(t, db, q)
			if !bit.Size().IsInt64() || bit.Size().Int64() > 1<<14 {
				break // keep full enumeration cheap
			}
			compareBitsetScalar(t, seed, step, bit, sc)
		}
	}
	if bitsetSeen == 0 {
		t.Fatal("no seed compiled a bitset plan; the property test pinned nothing")
	}
}

// compileBitsetScalar compiles db's valuations engine for q twice: with
// default options and with DisableBitsets.
func compileBitsetScalar(t *testing.T, db *core.Database, q cq.Query) (bit, sc *Engine) {
	t.Helper()
	bit, err := Compile(db, q, ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	sc, err = CompileWith(db, q, ModeValuations, CompileOptions{DisableBitsets: true})
	if err != nil {
		t.Fatal(err)
	}
	return bit, sc
}

// TestBitsetSampleModeOff pins that ModeSample engines never carry a
// bitmap plan (sampling mutates digit domains per draw, which the plan's
// value-indexed blocks do not track).
func TestBitsetSampleModeOff(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	eng, err := Compile(db, cq.MustParseBCQ("R(x, x)"), ModeSample)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Bitset() {
		t.Fatal("ModeSample engine compiled a bitset plan")
	}
}

// variantOpts spans the four escape-hatch combinations of CompileWith.
// The last entry — scalar evaluation in the query's own atom order — is
// the reference shape every optimized variant must agree with.
var variantOpts = []CompileOptions{
	{},                     // default: bitset membership, cost-ordered atoms
	{DisableBitsets: true}, // scalar kernel, cost-ordered atoms
	{SyntacticOrder: true}, // bitset membership, syntactic atom order
	{DisableBitsets: true, SyntacticOrder: true}, // the reference
}

func compileVariants(t *testing.T, db *core.Database, q cq.Query, mode Mode) []*Engine {
	t.Helper()
	engs := make([]*Engine, len(variantOpts))
	for i, o := range variantOpts {
		e, err := CompileWith(db, q, mode, o)
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = e
	}
	return engs
}

// dedupTrace sweeps a completions-mode engine the way the count layer's
// dedup shard does — skipping visits whose SetGen is unchanged — and
// returns the first-seen deduplicated (canonical encoding, verdict)
// sequence. A sound SetGen skip never hides a distinct completion, so
// every engine variant must produce the identical trace.
func dedupTrace(t *testing.T, e *Engine) []string {
	t.Helper()
	cur := e.NewCursor()
	if err := cur.Seek(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var out []string
	var lastGen uint64
	for {
		if g := cur.SetGen(); g != lastGen {
			lastGen = g
			key := fmt.Sprint(cur.AppendCanonical(nil))
			if !seen[key] {
				seen[key] = true
				out = append(out, fmt.Sprintf("%s:%v", key, cur.Matches()))
			}
		}
		if !cur.Step() {
			return out
		}
	}
}

// compareVariantsLockstep sweeps all variants in lockstep against the
// reference (last) engine: identical verdicts at every index, identical
// completion hashes in ModeCompletions, and — re-sweeping each variant
// with the SetGen-skipping dedup — the identical first-seen completion
// set with verdicts.
func compareVariantsLockstep(t *testing.T, seed int64, step int, engs []*Engine) {
	t.Helper()
	ref := engs[len(engs)-1]
	size := ref.Size()
	for vi, e := range engs[:len(engs)-1] {
		if e.Size().Cmp(size) != 0 {
			t.Fatalf("seed %d step %d variant %d: sizes diverge: %v vs %v", seed, step, vi, e.Size(), size)
		}
	}
	if size.Sign() == 0 {
		return
	}
	completions := ref.Mode() == ModeCompletions
	curs := make([]*Cursor, len(engs))
	for i, e := range engs {
		curs[i] = e.NewCursor()
		if err := curs[i].Seek(big.NewInt(0)); err != nil {
			t.Fatal(err)
		}
	}
	rc := curs[len(curs)-1]
	seen := make(map[string]bool)
	var dedup []string
	for i := int64(0); ; i++ {
		want := rc.Matches()
		for vi, c := range curs[:len(curs)-1] {
			if c.Matches() != want {
				t.Fatalf("seed %d step %d index %d variant %d: verdict %v, reference %v",
					seed, step, i, vi, c.Matches(), want)
			}
			if completions && c.CompletionHash() != rc.CompletionHash() {
				t.Fatalf("seed %d step %d index %d variant %d: completion hash diverges",
					seed, step, i, vi)
			}
		}
		if completions {
			key := fmt.Sprint(rc.AppendCanonical(nil))
			if !seen[key] {
				seen[key] = true
				dedup = append(dedup, fmt.Sprintf("%s:%v", key, want))
			}
		}
		exhaust := rc.Step()
		for vi, c := range curs[:len(curs)-1] {
			if c.Step() != exhaust {
				t.Fatalf("seed %d step %d index %d variant %d: Step exhaustion diverges", seed, step, i, vi)
			}
		}
		if !exhaust {
			break
		}
	}
	if !completions {
		return
	}
	for vi, e := range engs {
		got := dedupTrace(t, e)
		if len(got) != len(dedup) {
			t.Fatalf("seed %d step %d variant %d: dedup trace has %d completions, reference saw %d",
				seed, step, vi, len(got), len(dedup))
		}
		for j := range dedup {
			if got[j] != dedup[j] {
				t.Fatalf("seed %d step %d variant %d: completion %d differs:\n got %s\nwant %s",
					seed, step, vi, j, got[j], dedup[j])
			}
		}
	}
}

// TestVariantsLockstep is the escape-hatch property test: every compile
// variant — bitset/scalar × cost/syntactic order — must produce
// bit-identical verdict sequences, completion hashes and deduplicated
// completion sets, in both modes, recompiled after each batch of random
// mutations.
func TestVariantsLockstep(t *testing.T) {
	for _, mode := range []Mode{ModeValuations, ModeCompletions} {
		name := "valuations"
		if mode == ModeCompletions {
			name = "completions"
		}
		t.Run(name, func(t *testing.T) {
			reordered, compared := 0, 0
			for seed := int64(0); seed < 60; seed++ {
				r := rand.New(rand.NewSource(seed + 5000))
				db := randDB(r, int(seed%3))
				q := bitsetQueries[r.Intn(len(bitsetQueries))]
				engs := compileVariants(t, db, q, mode)
				if engs[0].AtomOrder() != "syntactic" {
					reordered++
				}
				if engs[3].AtomOrder() != "syntactic" {
					t.Fatalf("seed %d: SyntacticOrder engine reports order %q", seed, engs[3].AtomOrder())
				}
				if !engs[3].Size().IsInt64() || engs[3].Size().Int64() > 1<<13 {
					continue // keep the 4-way full enumeration cheap
				}
				compared++
				compareVariantsLockstep(t, seed, -1, engs)

				mr := rand.New(rand.NewSource(seed*131 + 7))
				for step := 0; step < 3; step++ {
					for n := 1 + mr.Intn(3); n > 0; n-- {
						mutateRandom(mr, db)
					}
					engs = compileVariants(t, db, q, mode)
					if !engs[3].Size().IsInt64() || engs[3].Size().Int64() > 1<<13 {
						break
					}
					compareVariantsLockstep(t, seed, step, engs)
				}
			}
			if compared == 0 {
				t.Fatal("no seed was small enough to compare; the property test pinned nothing")
			}
			if reordered == 0 {
				t.Fatal("no seed produced a cost-reordered program; the order property pinned nothing")
			}
		})
	}
}

// FuzzBitsetMatches drives randomized (database, query, mode, index)
// tuples through all four compile variants and requires identical
// verdicts — and, in completions mode, identical completion hashes —
// against the scalar syntactic-order reference.
func FuzzBitsetMatches(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0))
	f.Add(int64(7), uint8(3), uint8(1), uint16(911))
	f.Fuzz(func(t *testing.T, seed int64, qsel, msel uint8, idx uint16) {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, int(uint64(seed)%3))
		q := bitsetQueries[int(qsel)%len(bitsetQueries)]
		mode := ModeValuations
		if msel%2 == 1 {
			mode = ModeCompletions
		}
		engs := make([]*Engine, len(variantOpts))
		for i, o := range variantOpts {
			e, err := CompileWith(db, q, mode, o)
			if err != nil {
				t.Fatal(err)
			}
			engs[i] = e
		}
		ref := engs[len(engs)-1]
		size := ref.Size()
		if size.Sign() == 0 {
			return
		}
		start := new(big.Int).Mod(big.NewInt(int64(idx)), size)
		curs := make([]*Cursor, len(engs))
		for i, e := range engs {
			curs[i] = e.NewCursor()
			if err := curs[i].Seek(start); err != nil {
				t.Fatal(err)
			}
		}
		rc := curs[len(curs)-1]
		for i := 0; i < 64; i++ {
			want := rc.Matches()
			for vi, c := range curs[:len(curs)-1] {
				if c.Matches() != want {
					t.Fatalf("seed %d q %d mode %v index %v+%d variant %d: got %v, reference %v",
						seed, qsel, mode, start, i, vi, c.Matches(), want)
				}
				if mode == ModeCompletions && c.CompletionHash() != rc.CompletionHash() {
					t.Fatalf("seed %d q %d index %v+%d variant %d: completion hash diverges",
						seed, qsel, start, i, vi)
				}
			}
			exhaust := rc.Step()
			for _, c := range curs[:len(curs)-1] {
				if c.Step() != exhaust {
					t.Fatal("Step exhaustion diverges")
				}
			}
			if !exhaust {
				return
			}
		}
	})
}
