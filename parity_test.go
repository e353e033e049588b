package incompletedb

// Session-parity property tests: every Solver-session call must be
// bit-identical to the internal dispatcher (internal/count) and the raw
// estimators (internal/approx) it wraps, across database shapes (naïve,
// Codd, uniform), query fragments (BCQ, UCQ, negation, inequality) and
// worker counts (serial, parallel).

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/approx"
	"github.com/incompletedb/incompletedb/internal/count"
)

// parityDBs builds the three database shapes of the matrix. The naïve
// table repeats a null across facts (neither Codd nor uniform), the Codd
// table gives every null a single occurrence and its own domain, and the
// uniform table shares one domain.
func parityDBs() map[string]*Database {
	naive := NewDatabase()
	naive.MustAddFact("S", Null(1), Const("a"))
	naive.MustAddFact("S", Const("a"), Null(1))
	naive.MustAddFact("T", Null(2), Null(3))
	naive.SetDomain(1, []string{"a", "b", "c"})
	naive.SetDomain(2, []string{"a", "b"})
	naive.SetDomain(3, []string{"b", "c"})

	codd := NewDatabase()
	codd.MustAddFact("S", Null(1), Const("a"))
	codd.MustAddFact("S", Const("a"), Null(2))
	codd.MustAddFact("T", Null(3), Const("b"))
	codd.SetDomain(1, []string{"a", "b", "c"})
	codd.SetDomain(2, []string{"a", "b"})
	codd.SetDomain(3, []string{"b", "c"})

	uniform := NewUniformDatabase([]string{"a", "b", "c"})
	uniform.MustAddFact("S", Null(1), Const("a"))
	uniform.MustAddFact("S", Const("a"), Null(1))
	uniform.MustAddFact("T", Null(2), Null(3))

	return map[string]*Database{"naive": naive, "codd": codd, "uniform": uniform}
}

// parityQueries covers the fragments of the matrix.
var parityQueries = map[string]string{
	"bcq":        "S(x, x)",
	"bcq-join":   "S(x, y) ∧ T(y, z)",
	"ucq":        "S(x, x) | T(x, y)",
	"negation":   "!S(x, x)",
	"inequality": "S(x, y) ∧ x ≠ y",
}

func TestSessionParityCounts(t *testing.T) {
	ctx := context.Background()
	for dbName, db := range parityDBs() {
		for qName, qs := range parityQueries {
			q := MustParseQuery(qs)
			for _, workers := range []int{1, 4} {
				opts := &CountOptions{Workers: workers}
				name := dbName + "/" + qName + "/w" + string(rune('0'+workers))

				// #Val: internal dispatcher = session.
				refN, refM, refErr := count.CountValuations(db, q, opts)
				pdb, err := NewSolver(WithWorkers(workers)).Prepare(db)
				if err != nil {
					t.Fatalf("%s: Prepare: %v", name, err)
				}
				res, sesErr := pdb.Count(ctx, q, Valuations)
				if (refErr != nil) != (sesErr != nil) {
					t.Fatalf("%s #Val errors diverge: ref=%v session=%v", name, refErr, sesErr)
				}
				if refErr == nil {
					if refN.Cmp(res.Count) != 0 {
						t.Errorf("%s #Val: ref %v, session %v", name, refN, res.Count)
					}
					if refM != res.Method {
						t.Errorf("%s #Val methods: ref %q, session %q", name, refM, res.Method)
					}
				}

				// #Comp likewise.
				refN, refM, refErr = count.CountCompletions(db, q, opts)
				resC, sesErr := pdb.Count(ctx, q, Completions)
				if (refErr != nil) != (sesErr != nil) {
					t.Fatalf("%s #Comp errors diverge: ref=%v session=%v", name, refErr, sesErr)
				}
				if refErr == nil {
					if refN.Cmp(resC.Count) != 0 {
						t.Errorf("%s #Comp: ref %v, session %v", name, refN, resC.Count)
					}
					if refM != resC.Method {
						t.Errorf("%s #Comp methods: ref %q, session %q", name, refM, resC.Method)
					}
				}

				// Certainty and possibility.
				refB, refErr := count.IsCertain(db, q, opts)
				resB, sesErr := pdb.Certain(ctx, q)
				if refErr != nil || sesErr != nil {
					t.Fatalf("%s certain errors: %v %v", name, refErr, sesErr)
				}
				if refB != *resB.Holds {
					t.Errorf("%s certain: ref %v, session %v", name, refB, *resB.Holds)
				}
				refB, refErr = count.IsPossible(db, q, opts)
				resB, sesErr = pdb.Possible(ctx, q)
				if refErr != nil || sesErr != nil {
					t.Fatalf("%s possible errors: %v %v", name, refErr, sesErr)
				}
				if refB != *resB.Holds {
					t.Errorf("%s possible: ref %v, session %v", name, refB, *resB.Holds)
				}
			}
		}
	}
}

func TestSessionParityAllCompletionsAndMu(t *testing.T) {
	ctx := context.Background()
	for dbName, db := range parityDBs() {
		ref, err := count.BruteForceAllCompletions(db, nil)
		if err != nil {
			t.Fatalf("%s: %v", dbName, err)
		}
		pdb, err := NewSolver().Prepare(db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pdb.AllCompletions(ctx)
		if err != nil {
			t.Fatalf("%s: %v", dbName, err)
		}
		if ref.Cmp(res.Count) != 0 {
			t.Errorf("%s all-completions: ref %v, session %v", dbName, ref, res.Count)
		}
		if res.Method == "" {
			t.Errorf("%s all-completions carries no method", dbName)
		}

		q := MustParseQuery("S(x, x)")
		for _, k := range []int{1, 2, 4} {
			refMu, err := referenceMu(db, q, k)
			if err != nil {
				t.Fatalf("%s µ_%d: %v", dbName, k, err)
			}
			sesMu, err := pdb.Mu(ctx, q, k)
			if err != nil {
				t.Fatalf("%s µ_%d: %v", dbName, k, err)
			}
			if refMu.Cmp(sesMu.Ratio) != 0 {
				t.Errorf("%s µ_%d: ref %v, session %v", dbName, k, refMu, sesMu.Ratio)
			}
			if sesMu.Count == nil || sesMu.Count.Method == "" {
				t.Errorf("%s µ_%d result lacks its counting Result", dbName, k)
			}
		}
	}
}

// referenceMu computes µ_k(q, T) for db's table with the counting
// dispatcher: #Val(q) over count.MuDatabase, divided by its total.
func referenceMu(db *Database, q Query, k int) (*big.Rat, error) {
	u, err := count.MuDatabase(db, k)
	if err != nil {
		return nil, err
	}
	sat, _, err := count.CountValuations(u, q, nil)
	if err != nil {
		return nil, err
	}
	total, err := u.NumValuations()
	if err != nil {
		return nil, err
	}
	return new(big.Rat).SetFrac(sat, total), nil
}

// TestSessionParityEstimators: same seed ⇒ identical draws ⇒ identical
// estimates, between the raw approx implementations and the session
// methods.
func TestSessionParityEstimators(t *testing.T) {
	ctx := context.Background()
	db := parityDBs()["uniform"]
	q := MustParseQuery("S(x, x) | T(x, y)")
	pdb, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := approx.KarpLubyValuations(ctx, db, q, 0.2, 0.2, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	ses, err := pdb.Estimate(ctx, q, 0.2, 0.2, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Estimate.Cmp(ses.Estimate) != 0 {
		t.Errorf("Karp–Luby: ref %v, session %v", ref.Estimate, ses.Estimate)
	}
	if ses.Samples != ref.Samples || ses.Cylinders != ref.Cylinders || ses.TotalWeight.Cmp(ref.TotalWeight) != 0 {
		t.Errorf("Karp–Luby diagnostics diverge: ref %+v, session %+v", ref, ses)
	}

	refMC, err := approx.MonteCarloValuations(ctx, db, q, 500, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	sesMC, err := pdb.MonteCarlo(ctx, q, 500, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if refMC.Estimate.Cmp(sesMC.Estimate) != 0 {
		t.Errorf("Monte Carlo: ref %v, session %v", refMC.Estimate, sesMC.Estimate)
	}
	if sesMC.Satisfied != refMC.Satisfied || sesMC.Fraction != refMC.Fraction {
		t.Errorf("Monte Carlo tallies diverge: ref %+v, session %+v", refMC, sesMC)
	}

	refLB, err := approx.CompletionsLowerBound(ctx, db, q, 300, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	sesLB, err := pdb.CompletionsLowerBound(ctx, q, 300, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	if refLB.Bound.Cmp(sesLB.Bound) != 0 || refLB.Distinct != sesLB.Distinct {
		t.Errorf("lower bound: ref %+v, session %+v", refLB, sesLB)
	}
	if sesLB.Distinct == 0 || sesLB.Samples != 300 {
		t.Errorf("lower-bound tallies missing: %+v", sesLB)
	}
}

// TestSharedSolverCacheIsSafeAcrossDatabases: sessions over different
// databases share one solver's result cache; interleaving databases and
// queries through it must never cross-contaminate counts.
func TestSharedSolverCacheIsSafeAcrossDatabases(t *testing.T) {
	ctx := context.Background()
	s := NewSolver()
	dbs := parityDBs()
	want := make(map[string]*big.Int)
	for round := 0; round < 3; round++ {
		for dbName, db := range dbs {
			pdb, err := s.Prepare(db)
			if err != nil {
				t.Fatalf("%s: Prepare: %v", dbName, err)
			}
			for qName, qs := range parityQueries {
				res, err := pdb.Count(ctx, MustParseQuery(qs), Valuations)
				if err != nil {
					t.Fatalf("%s/%s: %v", dbName, qName, err)
				}
				key := dbName + "/" + qName
				if round == 0 {
					want[key] = res.Count
				} else if res.Count.Cmp(want[key]) != 0 {
					t.Errorf("%s drifted across shared-solver calls: %v then %v", key, want[key], res.Count)
				}
			}
		}
	}
}
