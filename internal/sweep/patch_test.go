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

// mutateRandom applies one random mutation to db: fact adds (possibly with
// fresh nulls or fresh relations), fact removals, domain extensions and the
// occasional wholesale SetDomain (the forced-rebuild path).
func mutateRandom(r *rand.Rand, db *core.Database) {
	vals := []string{"a", "b", "c", "d"}
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 1}, {"T", 2}, {"U", 1}, {"Junk", 2}}
	switch r.Intn(6) {
	case 0, 1, 2: // add a fact (weighted: adds drive most structure)
		rel := rels[r.Intn(len(rels))]
		if a := db.Arity(rel.name); a != 0 {
			rel.arity = a
		}
		nulls := append([]core.NullID(nil), db.Nulls()...)
		maxn := core.NullID(0)
		for _, n := range nulls {
			if n > maxn {
				maxn = n
			}
		}
		args := make([]core.Value, rel.arity)
		for i := range args {
			switch {
			case len(nulls) > 0 && r.Intn(3) == 0:
				args[i] = core.Null(nulls[r.Intn(len(nulls))])
			case r.Intn(3) == 0: // fresh null
				maxn++
				if !db.Uniform() {
					if err := db.ExtendDomain(maxn, vals[:1+r.Intn(2)]...); err != nil {
						panic(err)
					}
				}
				args[i] = core.Null(maxn)
				nulls = append(nulls, maxn)
			default:
				args[i] = core.Const(vals[r.Intn(len(vals))])
			}
		}
		db.MustAddFact(rel.name, args...)
	case 3: // remove a random fact
		facts := db.Facts()
		if len(facts) == 0 {
			return
		}
		f := facts[r.Intn(len(facts))]
		db.RemoveFact(f.Rel, f.Args...)
	case 4: // extend a domain
		if db.Uniform() {
			if err := db.ExtendUniformDomain(vals[r.Intn(len(vals))] + "u"); err != nil {
				panic(err)
			}
			return
		}
		nulls := db.Nulls()
		if len(nulls) == 0 {
			return
		}
		if err := db.ExtendDomain(nulls[r.Intn(len(nulls))], vals[r.Intn(len(vals))]+"x"); err != nil {
			panic(err)
		}
	case 5: // wholesale domain replacement: the forced-rebuild delta
		if db.Uniform() {
			return
		}
		nulls := db.Nulls()
		if len(nulls) == 0 {
			return
		}
		if err := db.SetDomain(nulls[r.Intn(len(nulls))], vals[:1+r.Intn(3)]); err != nil {
			panic(err)
		}
	}
}

// engineSemantics is everything a sweep consumer can observe: the space
// sizes and, by full enumeration, the matched-valuation count of the full
// space and (in ModeCompletions) every completion's canonical key with its
// verdict, deduplicated BOTH ways — by core-level canonical keys and by
// the engine's own hash/snapshot machinery (the path internal/count runs).
type engineSemantics struct {
	total    *big.Int
	matched  *big.Int
	comps    map[string]bool
	distinct int // distinct completions per hash + EqualsSnapshot dedup
}

func enumerateEngine(t *testing.T, eng *Engine) engineSemantics {
	t.Helper()
	s := engineSemantics{total: eng.TotalSize(), matched: new(big.Int), comps: make(map[string]bool)}
	size := eng.Size()
	if size.Sign() == 0 {
		return s
	}
	buckets := make(map[Hash128][]*Snapshot)
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	for {
		if cur.Matches() {
			s.matched.Add(s.matched, big.NewInt(1))
		}
		if eng.mode == ModeCompletions {
			s.comps[cur.Instance().CanonicalKey()] = cur.Matches()
			h := cur.CompletionHash()
			dup := false
			for _, snap := range buckets[h] {
				if cur.EqualsSnapshot(snap) {
					dup = true
					break
				}
			}
			if !dup {
				buckets[h] = append(buckets[h], cur.Snapshot())
				s.distinct++
			}
		}
		if !cur.Step() {
			break
		}
	}
	s.matched.Mul(s.matched, eng.Multiplier())
	return s
}

// TestPatchMatchesRecompile interleaves random mutations with Patch and
// checks, after every batch, that the patched engine is observationally
// identical to a fresh Compile of the mutated database: same space sizes,
// same matched-valuation count, same completion set with same verdicts.
func TestPatchMatchesRecompile(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseBCQ("R(x, y) ∧ S(y)"),
		cq.MustParseBCQ("R(x, x)"),
		cq.MustParse("S(x) | T(y, y)"),
		&cq.Negation{Inner: cq.MustParseBCQ("R(x, y)")},
		cq.MustParse("R(x, y) ∧ x ≠ y"),
		cq.Tautology{},
		&cq.Func{Name: "has-2-facts", F: func(i *core.Instance) bool { return i.Size() >= 2 }},
		cq.MustParseBCQ("U(x)"), // relation often absent at compile time
	}
	patched, rebuilt := 0, 0
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		base := randDB(r, int(seed%3))
		q := queries[r.Intn(len(queries))]
		for _, mode := range []Mode{ModeValuations, ModeCompletions} {
			db := base.Clone()
			eng, err := Compile(db, q, mode)
			if err != nil {
				t.Fatal(err)
			}
			ver := db.Version()
			mr := rand.New(rand.NewSource(seed*31 + int64(mode)))
			for step := 0; step < 6; step++ {
				for n := 1 + mr.Intn(3); n > 0; n-- {
					mutateRandom(mr, db)
				}
				deltas, ok := db.DeltasSince(ver)
				if !ok {
					t.Fatal("delta log unavailable")
				}
				ver = db.Version()
				for _, d := range deltas {
					if eng.Patch(db, d) {
						patched++
						continue
					}
					rebuilt++
					if eng, err = Compile(db, q, mode); err != nil {
						t.Fatalf("seed %d step %d: recompile after failed patch: %v", seed, step, err)
					}
					break
				}
				fresh, err := Compile(db, q, mode)
				if err != nil {
					t.Fatalf("seed %d step %d: fresh compile: %v", seed, step, err)
				}
				if !fresh.Size().IsInt64() || fresh.Size().Int64() > 1<<14 {
					break // keep full enumeration cheap
				}
				compareEngines(t, seed, step, eng, fresh)
			}
		}
	}
	if patched == 0 || rebuilt == 0 {
		t.Fatalf("test exercised patched=%d rebuilt=%d paths; both must be hit", patched, rebuilt)
	}
}

func compareEngines(t *testing.T, seed int64, step int, eng, fresh *Engine) {
	t.Helper()
	if eng.TotalSize().Cmp(fresh.TotalSize()) != 0 {
		t.Fatalf("seed %d step %d: patched TotalSize %v, fresh %v", seed, step, eng.TotalSize(), fresh.TotalSize())
	}
	if eng.Size().Cmp(fresh.Size()) != 0 {
		t.Fatalf("seed %d step %d: patched Size %v, fresh %v (pruned %d vs %d)",
			seed, step, eng.Size(), fresh.Size(), eng.Pruned(), fresh.Pruned())
	}
	got := enumerateEngine(t, eng)
	want := enumerateEngine(t, fresh)
	if got.matched.Cmp(want.matched) != 0 {
		t.Fatalf("seed %d step %d: patched matched %v, fresh %v", seed, step, got.matched, want.matched)
	}
	// The witness-block skip reads the ready depths, which a patch that
	// inserts or drops a digit renumbers.
	if size := eng.Size().Int64(); eng.mode == ModeValuations {
		if sat, _ := spanCount(t, eng, 0, size); sat != stepCount(t, fresh, 0, size) {
			t.Fatalf("seed %d step %d: patched engine's skipping count %d, fresh stepping count %d",
				seed, step, sat, stepCount(t, fresh, 0, size))
		}
	}
	// So does the prefix memo's geometry: the patched engine memoizes the
	// fresh one's depths, and its memo sweep sees the fresh stepping
	// sweep's completions.
	if size := eng.Size().Int64(); eng.mode == ModeCompletions {
		if !slices.Equal(eng.readyEnd, fresh.readyEnd) || fmt.Sprint(eng.memoDepths) != fmt.Sprint(fresh.memoDepths) {
			t.Fatalf("seed %d step %d: patched prefix geometry %v %v, fresh %v %v",
				seed, step, eng.readyEnd, eng.memoDepths, fresh.readyEnd, fresh.memoDepths)
		}
		got, _, _ := memoSweep(t, eng, 0, size, true)
		if want, _, _ := memoSweep(t, fresh, 0, size, false); !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d: patched memo sweep saw %v, fresh stepping %v", seed, step, got, want)
		}
	}
	if len(got.comps) != len(want.comps) {
		t.Fatalf("seed %d step %d: patched has %d distinct completions, fresh %d",
			seed, step, len(got.comps), len(want.comps))
	}
	if got.distinct != len(got.comps) {
		t.Fatalf("seed %d step %d: patched snapshot dedup found %d distinct completions, canonical keys %d",
			seed, step, got.distinct, len(got.comps))
	}
	if want.distinct != len(want.comps) {
		t.Fatalf("seed %d step %d: fresh snapshot dedup found %d distinct completions, canonical keys %d",
			seed, step, want.distinct, len(want.comps))
	}
	for key, verdict := range want.comps {
		gv, ok := got.comps[key]
		if !ok {
			t.Fatalf("seed %d step %d: patched engine misses completion %q", seed, step, key)
		}
		if gv != verdict {
			t.Fatalf("seed %d step %d: completion %q verdict %v, fresh %v", seed, step, key, gv, verdict)
		}
	}
}
