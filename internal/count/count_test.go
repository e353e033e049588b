package count

import (
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// --- helpers ---------------------------------------------------------------

// randomUniformDB builds a random uniform database over the given schema
// (relation -> arity). Arguments are nulls from a small pool or constants
// from the domain plus a few out-of-domain constants.
func randomUniformDB(r *rand.Rand, schema map[string]int, maxFactsPerRel, nNulls, domSize int) *core.Database {
	dom := make([]string, domSize)
	for i := range dom {
		dom[i] = fmt.Sprintf("c%d", i)
	}
	db := core.NewUniformDatabase(dom)
	pool := []string{}
	pool = append(pool, dom...)
	pool = append(pool, "x_out1", "x_out2") // constants outside dom
	for _, rel := range slices.Sorted(maps.Keys(schema)) {
		arity := schema[rel]
		nf := 1 + r.Intn(maxFactsPerRel)
		for i := 0; i < nf; i++ {
			args := make([]core.Value, arity)
			for j := range args {
				if nNulls > 0 && r.Intn(2) == 0 {
					args[j] = core.Null(core.NullID(1 + r.Intn(nNulls)))
				} else {
					args[j] = core.Const(pool[r.Intn(len(pool))])
				}
			}
			db.MustAddFact(rel, args...)
		}
	}
	return db
}

// randomCoddDB builds a random non-uniform Codd database: every null occurs
// exactly once, with its own random domain.
func randomCoddDB(r *rand.Rand, schema map[string]int, maxFactsPerRel, maxDomSize int) *core.Database {
	db := core.NewDatabase()
	universe := []string{"a", "b", "c", "d", "e"}
	next := core.NullID(1)
	for _, rel := range slices.Sorted(maps.Keys(schema)) {
		arity := schema[rel]
		nf := 1 + r.Intn(maxFactsPerRel)
		for i := 0; i < nf; i++ {
			args := make([]core.Value, arity)
			for j := range args {
				if r.Intn(2) == 0 {
					args[j] = core.Null(next)
					size := 1 + r.Intn(maxDomSize)
					dom := make([]string, 0, size)
					perm := r.Perm(len(universe))
					for _, p := range perm[:size] {
						dom = append(dom, universe[p])
					}
					db.SetDomain(next, dom)
					next++
				} else {
					args[j] = core.Const(universe[r.Intn(len(universe))])
				}
			}
			db.MustAddFact(rel, args...)
		}
	}
	return db
}

func mustEqual(t *testing.T, got, want *big.Int, msg string) {
	t.Helper()
	if got.Cmp(want) != 0 {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

// --- brute force -----------------------------------------------------------

// TestExample22Counts reproduces Example 2.2 / Figure 1: 4 satisfying
// valuations and 3 satisfying completions for q = ∃x S(x,x).
func TestExample22Counts(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("S", core.Const("a"), core.Const("b"))
	db.MustAddFact("S", core.Null(1), core.Const("a"))
	db.MustAddFact("S", core.Const("a"), core.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})
	q := cq.MustParseBCQ("S(x, x)")

	vals, err := BruteForceValuations(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, vals, big.NewInt(4), "#Val(S(x,x))")

	comps, err := BruteForceCompletions(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, comps, big.NewInt(3), "#Comp(S(x,x))")

	all, err := BruteForceAllCompletions(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, all, big.NewInt(5), "#Comp(TRUE)")
}

func TestBruteForceGuard(t *testing.T) {
	db := core.NewUniformDatabase([]string{"0", "1"})
	for i := 1; i <= 40; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)))
	}
	if _, err := BruteForceValuations(db, cq.MustParseBCQ("R(x)"), nil); err == nil {
		t.Fatal("guard not enforced")
	}
	if _, err := BruteForceCompletions(db, cq.MustParseBCQ("R(x)"), &Options{MaxValuations: 100}); err == nil {
		t.Fatal("custom guard not enforced")
	}
}

func TestBruteForceMissingDomain(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1))
	if _, err := BruteForceValuations(db, cq.MustParseBCQ("R(x)"), nil); err == nil {
		t.Fatal("missing domain not reported")
	}
}

func TestEnumerateCompletions(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1))
	insts, err := EnumerateCompletions(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("%d completions, want 2", len(insts))
	}
}

// --- Theorem 3.6: single-occurrence variables ------------------------------

func TestValSingleOccurrenceBasic(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Const("a"))
	db.MustAddFact("S", core.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})
	q := cq.MustParseBCQ("R(x, y) ∧ S(z)")
	got, err := ValuationsSingleOccurrence(db, q)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(6), "all valuations satisfy")
}

func TestValSingleOccurrenceEmptyRelation(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Const("a"))
	db.SetDomain(1, []string{"a", "b"})
	q := cq.MustParseBCQ("R(x, y) ∧ S(z)")
	got, err := ValuationsSingleOccurrence(db, q)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(0), "empty S")
}

func TestValSingleOccurrenceArityMismatch(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Const("a"))
	q := cq.MustParseBCQ("R(x, y)")
	got, err := ValuationsSingleOccurrence(db, q)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(0), "arity mismatch")
}

func TestValSingleOccurrencePreconditions(t *testing.T) {
	db := core.NewDatabase()
	if _, err := ValuationsSingleOccurrence(db, cq.MustParseBCQ("R(x, x)")); err == nil {
		t.Fatal("repeated variable accepted")
	}
	if _, err := ValuationsSingleOccurrence(db, cq.MustParseBCQ("R(x) ∧ S(x)")); err == nil {
		t.Fatal("shared variable accepted")
	}
	selfJoin := &cq.BCQ{Atoms: []cq.Atom{
		{Rel: "R", Vars: []string{"x"}},
		{Rel: "R", Vars: []string{"y"}},
	}}
	if _, err := ValuationsSingleOccurrence(db, selfJoin); err == nil {
		t.Fatal("self-join accepted")
	}
}

func TestValSingleOccurrenceAgainstBrute(t *testing.T) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(z)")
	schema := map[string]int{"R": 2, "S": 1}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomUniformDB(r, schema, 3, 4, 3)
		want, err := BruteForceValuations(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ValuationsSingleOccurrence(db, q)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, got, want, fmt.Sprintf("seed %d db:\n%s", seed, db))
	}
}

// --- Theorem 3.7: Codd tables ----------------------------------------------

func TestValCoddKnown(t *testing.T) {
	// D(R) = {R(?1, ?2)} with dom(?1) = {a,b}, dom(?2) = {a,b,c};
	// q = R(x, x): matches iff ν(?1) = ν(?2) ∈ {a,b}: 2 of 6 valuations.
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.SetDomain(1, []string{"a", "b"})
	db.SetDomain(2, []string{"a", "b", "c"})
	q := cq.MustParseBCQ("R(x, x)")
	got, err := ValuationsCodd(db, q)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(2), "#ValCd(R(x,x))")
}

func TestValCoddConstantsPin(t *testing.T) {
	// R(a, ?1): q = R(x,x) matches iff ν(?1) = a.
	db := core.NewDatabase()
	db.MustAddFact("R", core.Const("a"), core.Null(1))
	db.SetDomain(1, []string{"a", "b"})
	got, err := ValuationsCodd(db, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(1), "pinned constant")

	// R(a, b) ground, never matches R(x,x); plus a free tuple R(?1, ?2).
	db2 := core.NewDatabase()
	db2.MustAddFact("R", core.Const("a"), core.Const("b"))
	got2, err := ValuationsCodd(db2, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got2, big.NewInt(0), "ground non-matching")

	db3 := core.NewDatabase()
	db3.MustAddFact("R", core.Const("a"), core.Const("a"))
	got3, err := ValuationsCodd(db3, cq.MustParseBCQ("R(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got3, big.NewInt(1), "ground matching, no nulls")
}

func TestValCoddPreconditions(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Null(1)) // repeated null: not Codd
	db.SetDomain(1, []string{"a"})
	if _, err := ValuationsCodd(db, cq.MustParseBCQ("R(x, y)")); err == nil {
		t.Fatal("non-Codd table accepted")
	}
	codd := core.NewDatabase()
	codd.MustAddFact("R", core.Null(1))
	codd.SetDomain(1, []string{"a"})
	if _, err := ValuationsCodd(codd, cq.MustParseBCQ("R(x) ∧ S(x)")); err == nil {
		t.Fatal("shared-variable query accepted")
	}
}

func TestValCoddAgainstBrute(t *testing.T) {
	queries := []*cq.BCQ{
		cq.MustParseBCQ("R(x, x)"),
		cq.MustParseBCQ("R(x, x, y)"),
		cq.MustParseBCQ("R(x, y) ∧ S(z, z)"),
		cq.MustParseBCQ("R(x, x) ∧ S(y)"),
	}
	for _, q := range queries {
		schema := map[string]int{}
		for _, a := range q.Atoms {
			schema[a.Rel] = len(a.Vars)
		}
		for seed := int64(0); seed < 25; seed++ {
			r := rand.New(rand.NewSource(seed))
			db := randomCoddDB(r, schema, 3, 3)
			want, err := BruteForceValuations(db, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ValuationsCodd(db, q)
			if err != nil {
				t.Fatal(err)
			}
			mustEqual(t, got, want, fmt.Sprintf("q=%v seed=%d db:\n%s", q, seed, db))
		}
	}
}

func TestValCoddExtraRelationNulls(t *testing.T) {
	// Nulls in relations outside sig(q) multiply the count freely.
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1))
	db.MustAddFact("Extra", core.Null(2))
	db.SetDomain(1, []string{"a", "b"})
	db.SetDomain(2, []string{"a", "b", "c"})
	got, err := ValuationsCodd(db, cq.MustParseBCQ("R(x)"))
	if err != nil {
		t.Fatal(err)
	}
	// R(x) satisfied by all valuations (2 choices) × 3 free choices.
	mustEqual(t, got, big.NewInt(6), "free nulls")
}

// --- Theorem 3.9: uniform naïve tables -------------------------------------

func TestValUniformExampleRxSx(t *testing.T) {
	// Example 3.10 shape: q = R(x) ∧ S(x), uniform domain.
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	db.MustAddFact("R", core.Null(1))
	db.MustAddFact("S", core.Null(2))
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	got, err := ValuationsUniform(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// ν satisfies iff ν(?1) = ν(?2): 3 of 9.
	mustEqual(t, got, big.NewInt(3), "#Valu(R(x)∧S(x))")
}

func TestValUniformPreconditions(t *testing.T) {
	nu := core.NewDatabase()
	if _, err := ValuationsUniform(nu, cq.MustParseBCQ("R(x) ∧ S(x)")); err == nil {
		t.Fatal("non-uniform database accepted")
	}
	u := core.NewUniformDatabase([]string{"a"})
	for _, bad := range []string{"R(x, x)", "R(x) ∧ S(x, y) ∧ T(y)", "R(x, y) ∧ S(x, y)"} {
		if _, err := ValuationsUniform(u, cq.MustParseBCQ(bad)); err == nil {
			t.Fatalf("hard pattern %q accepted", bad)
		}
	}
}

func valUniformQueries() []*cq.BCQ {
	return []*cq.BCQ{
		cq.MustParseBCQ("R(x) ∧ S(x)"),
		cq.MustParseBCQ("R(x) ∧ S(x) ∧ T(x)"),
		cq.MustParseBCQ("R(x, y) ∧ S(y)"),
		cq.MustParseBCQ("R(x) ∧ S(x) ∧ U(w, v)"),
		cq.MustParseBCQ("R(x) ∧ S(x) ∧ T(y) ∧ U(y)"),
		cq.MustParseBCQ("R(x, y) ∧ S(y) ∧ T(z, w)"),
	}
}

func TestValUniformAgainstBrute(t *testing.T) {
	for _, q := range valUniformQueries() {
		schema := map[string]int{}
		for _, a := range q.Atoms {
			schema[a.Rel] = len(a.Vars)
		}
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(seed))
			db := randomUniformDB(r, schema, 2, 3, 3)
			want, err := BruteForceValuations(db, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ValuationsUniform(db, q)
			if err != nil {
				t.Fatalf("q=%v seed=%d: %v\ndb:\n%s", q, seed, err, db)
			}
			mustEqual(t, got, want, fmt.Sprintf("q=%v seed=%d db:\n%s", q, seed, db))
		}
	}
}

func TestValUniformSharedNullsAcrossRelations(t *testing.T) {
	// Naïve table: the same null occurs in R and S.
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1))
	db.MustAddFact("S", core.Null(1))
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	got, err := ValuationsUniform(db, q)
	if err != nil {
		t.Fatal(err)
	}
	// Both facts always share the same value: every valuation satisfies.
	mustEqual(t, got, big.NewInt(2), "shared null")
}

func TestValUniformEmptyRelation(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a"})
	db.MustAddFact("R", core.Null(1))
	got, err := ValuationsUniform(db, cq.MustParseBCQ("R(x) ∧ S(x)"))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(0), "empty relation")
}

// --- Theorem 4.6: uniform completions over unary schemas --------------------

func TestCompUniformSingleRelation(t *testing.T) {
	// D(R) = {R(?1), R(?2)}, dom = {a,b,c}: completions are the nonempty
	// subsets of dom of size ≤ 2: 3 + 3 = 6; all satisfy R(x).
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	db.MustAddFact("R", core.Null(1))
	db.MustAddFact("R", core.Null(2))
	got, err := CompletionsUniform(db, cq.MustParseBCQ("R(x)"))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(6), "#Compu(R(x))")
}

func TestCompUniformPreconditions(t *testing.T) {
	u := core.NewUniformDatabase([]string{"a"})
	if _, err := CompletionsUniform(u, cq.MustParseBCQ("R(x, y)")); err == nil {
		t.Fatal("binary pattern accepted")
	}
	if _, err := CompletionsUniform(u, cq.MustParseBCQ("R(x, x)")); err == nil {
		t.Fatal("R(x,x) accepted")
	}
	nu := core.NewDatabase()
	if _, err := CompletionsUniform(nu, cq.MustParseBCQ("R(x)")); err == nil {
		t.Fatal("non-uniform accepted")
	}
	bin := core.NewUniformDatabase([]string{"a"})
	bin.MustAddFact("E", core.Const("a"), core.Const("a"))
	if _, err := CompletionsUniform(bin, cq.MustParseBCQ("R(x)")); err == nil {
		t.Fatal("binary relation in db accepted")
	}
}

func compUniformQueries() []*cq.BCQ {
	return []*cq.BCQ{
		cq.MustParseBCQ("R(x)"),
		cq.MustParseBCQ("R(x) ∧ S(x)"),
		cq.MustParseBCQ("R(x) ∧ S(y)"),
		cq.MustParseBCQ("R(x) ∧ S(x) ∧ T(y)"),
	}
}

func TestCompUniformAgainstBrute(t *testing.T) {
	for _, q := range compUniformQueries() {
		schema := map[string]int{}
		for _, a := range q.Atoms {
			schema[a.Rel] = 1
		}
		for seed := int64(0); seed < 40; seed++ {
			r := rand.New(rand.NewSource(seed))
			db := randomUniformDB(r, schema, 3, 3, 3)
			want, err := BruteForceCompletions(db, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CompletionsUniform(db, q)
			if err != nil {
				t.Fatalf("q=%v seed=%d: %v\ndb:\n%s", q, seed, err, db)
			}
			mustEqual(t, got, want, fmt.Sprintf("q=%v seed=%d db:\n%s", q, seed, db))
		}
	}
}

func TestCompUniformTautology(t *testing.T) {
	// Counting all completions of a uniform unary table via the FP
	// algorithm with a query satisfied by... there is no tautology BCQ, so
	// compare against brute force with a single always-nonempty relation.
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomUniformDB(r, map[string]int{"R": 1}, 4, 4, 3)
		// Ensure R has a constant fact so R(x) is satisfied by every
		// completion; then #Compu(R(x)) counts all completions.
		db.MustAddFact("R", core.Const("c0"))
		want, err := BruteForceAllCompletions(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompletionsUniform(db, cq.MustParseBCQ("R(x)"))
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, got, want, fmt.Sprintf("seed=%d db:\n%s", seed, db))
	}
}

func TestCompUniformCoddAgainstBrute(t *testing.T) {
	// The same algorithm covers Codd tables (#CompuCd): generate uniform
	// Codd databases (each null used once).
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		dom := []string{"a", "b", "c"}
		db := core.NewUniformDatabase(dom)
		next := core.NullID(1)
		for _, rel := range []string{"R", "S"} {
			nf := 1 + r.Intn(3)
			for i := 0; i < nf; i++ {
				if r.Intn(2) == 0 {
					db.MustAddFact(rel, core.Null(next))
					next++
				} else {
					db.MustAddFact(rel, core.Const(dom[r.Intn(len(dom))]))
				}
			}
		}
		if !db.IsCodd() {
			t.Fatal("generator broke Codd property")
		}
		want, err := BruteForceCompletions(db, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompletionsUniform(db, q)
		if err != nil {
			t.Fatal(err)
		}
		mustEqual(t, got, want, fmt.Sprintf("seed=%d db:\n%s", seed, db))
	}
}

func TestCompUniformEmptyRelationForQuery(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a"})
	db.MustAddFact("R", core.Const("a"))
	got, err := CompletionsUniform(db, cq.MustParseBCQ("R(x) ∧ S(x)"))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(0), "S empty")
}

func TestCompUniformNoNulls(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Const("a"))
	got, err := CompletionsUniform(db, cq.MustParseBCQ("R(x)"))
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, got, big.NewInt(1), "single completion")
}
