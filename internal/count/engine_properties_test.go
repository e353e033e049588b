package count

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// This file pins the compiled sweep engine to the behaviour of the PR-1
// sharded sweep it replaced: reference implementations below enumerate the
// full valuation space with Database.Apply, string-keyed deduplication and
// direct Query.Eval — exactly what the pre-engine counters did — and the
// engine-backed counters must reproduce their results bit for bit, for
// every combination of database shape (naïve/Codd/uniform), query
// fragment (BCQ/UCQ/negation/inequality/TRUE/opaque Func) and worker
// count, including enumeration order, cancellation and progress behaviour.

// refValuations is the PR-1 semantics of BruteForceValuations: a serial
// Apply-based sweep of the whole space.
func refValuations(t *testing.T, db *core.Database, q cq.Query) *big.Int {
	t.Helper()
	n := big.NewInt(0)
	one := big.NewInt(1)
	err := db.ForEachValuation(func(v core.Valuation) bool {
		if q.Eval(db.Apply(v)) {
			n.Add(n, one)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// refCompletions is the PR-1 semantics of BruteForceCompletions and
// EnumerateCompletions: CanonicalKey-deduplicated completions in
// first-seen index order, with the query evaluated once per distinct
// completion.
func refCompletions(t *testing.T, db *core.Database, q cq.Query) (keysInOrder []string, count *big.Int) {
	t.Helper()
	sat := make(map[string]bool)
	err := db.ForEachValuation(func(v core.Valuation) bool {
		inst := db.Apply(v)
		key := inst.CanonicalKey()
		if _, dup := sat[key]; !dup {
			sat[key] = q.Eval(inst)
			keysInOrder = append(keysInOrder, key)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for _, ok := range sat {
		if ok {
			n++
		}
	}
	return keysInOrder, big.NewInt(n)
}

func enginePropertyQueries() []cq.Query {
	return []cq.Query{
		cq.MustParseBCQ("R(x, y) ∧ S(y)"),
		cq.MustParseBCQ("R(x, x)"),
		cq.MustParseBCQ("S(x)"),
		cq.MustParse("R(x, x) | T(a, b)"),
		&cq.Negation{Inner: cq.MustParseBCQ("S(x) ∧ R(x, y)")},
		cq.MustParse("R(x, y) ∧ x ≠ y"),
		cq.Tautology{},
		&cq.Func{Name: "even-size", F: func(i *core.Instance) bool { return i.Size()%2 == 0 }},
	}
}

// propertyDB builds a random database of the given kind (0 = naïve,
// 1 = Codd, 2 = uniform) over the schema R/2, S/1, T/2.
func propertyDB(r *rand.Rand, kind int) *core.Database {
	doms := [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}}
	var db *core.Database
	if kind == 2 {
		db = core.NewUniformDatabase(doms[r.Intn(len(doms))])
	} else {
		db = core.NewDatabase()
	}
	nextNull := 1
	for _, s := range []struct {
		rel   string
		arity int
	}{{"R", 2}, {"S", 1}, {"T", 2}} {
		rel, arity := s.rel, s.arity
		for i, nf := 0, r.Intn(3); i < nf; i++ {
			args := make([]core.Value, arity)
			for j := range args {
				switch {
				case kind == 1 || r.Intn(3) == 0:
					args[j] = core.Null(core.NullID(nextNull))
					nextNull++
				case nextNull > 1 && r.Intn(2) == 0:
					args[j] = core.Null(core.NullID(1 + r.Intn(nextNull-1)))
				default:
					args[j] = core.Const([]string{"a", "b", "c"}[r.Intn(3)])
				}
			}
			db.MustAddFact(rel, args...)
		}
	}
	if kind != 2 {
		for _, n := range db.Nulls() {
			db.SetDomain(n, doms[r.Intn(len(doms))])
		}
	}
	return db
}

// TestEngineMatchesLegacySweep is the main equivalence property: for
// random databases and queries, engine-backed #Val, #Comp and enumerated
// completions are identical — values and order — to the PR-1 reference,
// serially and sharded.
func TestEngineMatchesLegacySweep(t *testing.T) {
	queries := enginePropertyQueries()
	for seed := int64(0); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := propertyDB(r, int(seed%3))
		q := queries[r.Intn(len(queries))]

		wantVal := refValuations(t, db, q)
		wantKeys, wantComp := refCompletions(t, db, q)

		for _, workers := range []int{1, 4} {
			opts := &Options{Workers: workers}
			gotVal, err := BruteForceValuations(db, q, opts)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if gotVal.Cmp(wantVal) != 0 {
				t.Fatalf("seed %d workers %d q=%v: #Val %v, reference %v, db:\n%s", seed, workers, q, gotVal, wantVal, db)
			}
			gotComp, err := BruteForceCompletions(db, q, opts)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if gotComp.Cmp(wantComp) != 0 {
				t.Fatalf("seed %d workers %d q=%v: #Comp %v, reference %v, db:\n%s", seed, workers, q, gotComp, wantComp, db)
			}
			insts, err := EnumerateCompletions(db, opts)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if len(insts) != len(wantKeys) {
				t.Fatalf("seed %d workers %d: %d completions, reference %d", seed, workers, len(insts), len(wantKeys))
			}
			for i, inst := range insts {
				if inst.CanonicalKey() != wantKeys[i] {
					t.Fatalf("seed %d workers %d: completion %d out of reference order", seed, workers, i)
				}
			}
		}
	}
}

// TestEngineSemanticsMatchLegacy: IsCertain/IsPossible (now early-exit
// engine sweeps with pruning) agree with the reference counts.
func TestEngineSemanticsMatchLegacy(t *testing.T) {
	queries := enginePropertyQueries()
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := propertyDB(r, int(seed%3))
		q := queries[r.Intn(len(queries))]
		total, err := db.NumValuations()
		if err != nil {
			t.Fatal(err)
		}
		wantVal := refValuations(t, db, q)
		certain, err := IsCertain(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		possible, err := IsPossible(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := wantVal.Cmp(total) == 0; certain != want {
			t.Fatalf("seed %d q=%v: IsCertain %v, want %v (%v of %v), db:\n%s", seed, q, certain, want, wantVal, total, db)
		}
		if want := wantVal.Sign() > 0; possible != want {
			t.Fatalf("seed %d q=%v: IsPossible %v, want %v, db:\n%s", seed, q, possible, want, db)
		}
	}
}

// TestEnginePruningInvariance: growing an irrelevant null's domain scales
// #Val exactly multiplicatively, and the guard ignores the pruned factor.
func TestEnginePruningInvariance(t *testing.T) {
	q := cq.MustParseBCQ("R(x, x)")
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.SetDomain(1, []string{"a", "b"})
	db.SetDomain(2, []string{"a", "b", "c"})
	base, err := BruteForceValuations(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A huge irrelevant domain: 10^6 values on a null the query never
	// sees. The full space (6 × 10^6 × 2) is far beyond the tight guard
	// below, but the enumerated space stays 12.
	bigDom := make([]string, 1000000)
	for i := range bigDom {
		bigDom[i] = "v" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('a'+(i/100)%26)) + string(rune('a'+(i/2600)%26)) + string(rune('a'+i/67600))
	}
	db.MustAddFact("Junk", core.Null(3), core.Null(4))
	db.SetDomain(3, bigDom)
	db.SetDomain(4, []string{"u", "v"})

	got, err := BruteForceValuations(db, q, &Options{MaxValuations: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(base, big.NewInt(2*1000000))
	if got.Cmp(want) != 0 {
		t.Fatalf("pruned count %v, want %v", got, want)
	}

	// The same space must still be guarded for a query that touches Junk.
	if _, err := BruteForceValuations(db, cq.MustParseBCQ("Junk(x, y)"), &Options{MaxValuations: 100}); err == nil {
		t.Fatal("guard ignored a relevant space of 2M valuations")
	}
}

// TestEngineCancellationAndProgress: cancelling mid-sweep returns the
// context error under every worker count, and the progress contract
// (monotone, starts at 0, reaches total only on clean completion) holds
// on engine sweeps, with and without pruning.
func TestEngineCancellationAndProgress(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 14; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	db.MustAddFact("Junk", core.Null(15)) // pruned for the BCQ below
	q := cq.MustParseBCQ("R(x)")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		opts := &Options{Workers: w, Context: ctx}
		if _, err := BruteForceValuations(db, q, opts); err != context.Canceled {
			t.Fatalf("workers %d: valuations err = %v, want context.Canceled", w, err)
		}
		if _, err := BruteForceCompletions(db, q, opts); err != context.Canceled {
			t.Fatalf("workers %d: completions err = %v, want context.Canceled", w, err)
		}
	}

	var calls [][2]int
	opts := &Options{Workers: 4, Progress: func(done, total int) { calls = append(calls, [2]int{done, total}) }}
	if _, err := BruteForceValuations(db, q, opts); err != nil {
		t.Fatal(err)
	}
	if len(calls) < 2 || calls[0][0] != 0 {
		t.Fatalf("progress calls %v: missing start", calls)
	}
	for i := 1; i < len(calls); i++ {
		if calls[i][0] < calls[i-1][0] || calls[i][1] != calls[0][1] {
			t.Fatalf("progress calls %v: not monotone with fixed total", calls)
		}
	}
	last := calls[len(calls)-1]
	if last[0] != last[1] {
		t.Fatalf("progress calls %v: clean sweep did not reach total", calls)
	}
}
