package fingerprint

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// randomDB builds a random non-uniform database over a small schema, with
// repeated nulls (naïve-table structure) and per-null domains.
func randomDB(r *rand.Rand) *core.Database {
	db := core.NewDatabase()
	alphabet := []string{"a", "b", "c", "d"}
	nNulls := 1 + r.Intn(5)
	for n := 1; n <= nNulls; n++ {
		size := 1 + r.Intn(3)
		dom := make([]string, size)
		for i := range dom {
			dom[i] = alphabet[(r.Intn(len(alphabet))+i)%len(alphabet)]
		}
		db.SetDomain(core.NullID(n), dom)
	}
	for _, s := range []struct {
		rel   string
		arity int
	}{{"R", 2}, {"S", 1}, {"T", 3}} {
		rel, arity := s.rel, s.arity
		nf := r.Intn(4)
		for f := 0; f < nf; f++ {
			args := make([]core.Value, arity)
			for i := range args {
				if r.Intn(2) == 0 {
					args[i] = core.Null(core.NullID(1 + r.Intn(nNulls)))
				} else {
					args[i] = core.Const(alphabet[r.Intn(len(alphabet))])
				}
			}
			db.MustAddFact(rel, args...)
		}
	}
	return db
}

// renamed returns a copy of db with its nulls renamed by the given
// mapping; nulls absent from the mapping keep their IDs. It builds the
// isomorphic presentations the invariance tests compare.
func renamed(db *core.Database, mapping map[core.NullID]core.NullID) (*core.Database, error) {
	rename := func(n core.NullID) core.NullID {
		if m, ok := mapping[n]; ok {
			return m
		}
		return n
	}
	var out *core.Database
	if db.Uniform() {
		out = core.NewUniformDatabase(db.UniformDomain())
	} else {
		out = core.NewDatabase()
		for _, n := range db.Nulls() {
			if dom := db.Domain(n); dom != nil {
				if err := out.SetDomain(rename(n), dom); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, f := range db.Facts() {
		args := make([]core.Value, len(f.Args))
		for i, a := range f.Args {
			if a.IsNull() {
				args[i] = core.Null(rename(a.NullID()))
			} else {
				args[i] = a
			}
		}
		if err := out.AddFact(f.Rel, args...); err != nil {
			return nil, err
		}
	}
	// A non-injective mapping would silently merge nulls; reject it.
	if len(out.Nulls()) != len(db.Nulls()) {
		return nil, fmt.Errorf("fingerprint: null renaming is not injective on the database's nulls")
	}
	return out, nil
}

// scramble returns an isomorphic presentation of db: null IDs mapped
// through a random injection (an increasing one if keepOrder), facts
// re-inserted in a random order, and each domain's element order rotated.
func scramble(t *testing.T, r *rand.Rand, db *core.Database, keepOrder bool) *core.Database {
	t.Helper()
	nulls := db.Nulls()
	perm := r.Perm(len(nulls))
	if keepOrder {
		slices.Sort(perm)
	}
	mapping := make(map[core.NullID]core.NullID, len(nulls))
	for i, n := range nulls {
		mapping[n] = core.NullID(100 + perm[i]*7) // disjoint, gappy IDs
	}
	ren, err := renamed(db, mapping)
	if err != nil {
		t.Fatal(err)
	}
	var out *core.Database
	if ren.Uniform() {
		dom := ren.UniformDomain()
		rot := append(append([]string(nil), dom[len(dom)/2:]...), dom[:len(dom)/2]...)
		out = core.NewUniformDatabase(rot)
	} else {
		out = core.NewDatabase()
		for _, n := range ren.Nulls() {
			if dom := ren.Domain(n); dom != nil {
				rot := append(append([]string(nil), dom[len(dom)/2:]...), dom[:len(dom)/2]...)
				out.SetDomain(n, rot)
			}
		}
	}
	facts := append([]core.Fact(nil), ren.Facts()...)
	r.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	for _, f := range facts {
		out.MustAddFact(f.Rel, f.Args...)
	}
	return out
}

// TestDatabaseCanonicalInvariance: null-renamed, fact-reordered,
// domain-rotated presentations of the same database share one canonical
// form and one fingerprint.
func TestDatabaseCanonicalInvariance(t *testing.T) {
	q := cq.MustParseBCQ("R(x, y) ∧ S(x)")
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r)
		iso := scramble(t, r, db, false)
		c1, c2 := Database(db), Database(iso)
		if c1 != c2 {
			t.Fatalf("seed %d: canonical forms differ\n--- original\n%s\n--- scrambled\n%s\ncanon1:\n%s\ncanon2:\n%s",
				seed, db, iso, c1, c2)
		}
		if Of(db, q, KindVal) != Of(iso, q, KindVal) {
			t.Fatalf("seed %d: fingerprints differ for isomorphic databases", seed)
		}
	}
}

// TestDatabaseUniformInvariance: the same property for uniform databases.
func TestDatabaseUniformInvariance(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("R", core.Null(2), core.Const("a"))
	db.MustAddFact("S", core.Null(3))
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		iso := scramble(t, r, db, false)
		if Database(db) != Database(iso) {
			t.Fatalf("seed %d: uniform canonical forms differ:\n%s\nvs\n%s", seed, Database(db), Database(iso))
		}
	}
}

// TestDatabaseSymmetricNulls: fully symmetric (automorphic) nulls still
// canonicalize identically under swapping.
func TestDatabaseSymmetricNulls(t *testing.T) {
	build := func(a, b core.NullID) *core.Database {
		db := core.NewUniformDatabase([]string{"x", "y"})
		db.MustAddFact("R", core.Null(a))
		db.MustAddFact("R", core.Null(b))
		db.MustAddFact("S", core.Null(a), core.Null(b))
		db.MustAddFact("S", core.Null(b), core.Null(a))
		return db
	}
	if Database(build(1, 2)) != Database(build(2, 1)) {
		t.Fatalf("swapping symmetric nulls changed the canonical form:\n%s\nvs\n%s",
			Database(build(1, 2)), Database(build(2, 1)))
	}
}

// TestDatabaseDistinctions: genuinely different databases — a changed
// domain, a changed constant, an extra fact, or different null sharing —
// produce different canonical forms.
func TestDatabaseDistinctions(t *testing.T) {
	base := func() *core.Database {
		db := core.NewDatabase()
		db.MustAddFact("R", core.Null(1), core.Null(2))
		db.MustAddFact("S", core.Null(2))
		db.SetDomain(1, []string{"a", "b"})
		db.SetDomain(2, []string{"a", "b", "c"})
		return db
	}
	domChanged := base()
	domChanged.SetDomain(1, []string{"a", "c"})

	extraFact := base()
	extraFact.MustAddFact("S", core.Const("a"))

	// Same facts, but ?2 in S replaced by ?1: different sharing structure.
	sharing := core.NewDatabase()
	sharing.MustAddFact("R", core.Null(1), core.Null(2))
	sharing.MustAddFact("S", core.Null(1))
	sharing.SetDomain(1, []string{"a", "b"})
	sharing.SetDomain(2, []string{"a", "b", "c"})

	ref := Database(base())
	for name, db := range map[string]*core.Database{
		"domain changed":  domChanged,
		"extra fact":      extraFact,
		"sharing changed": sharing,
	} {
		if Database(db) == ref {
			t.Errorf("%s: canonical form did not change:\n%s", name, ref)
		}
	}

	// Swapped domains between structurally distinguishable nulls differ too.
	swapped := core.NewDatabase()
	swapped.MustAddFact("R", core.Null(1), core.Null(2))
	swapped.MustAddFact("S", core.Null(2))
	swapped.SetDomain(1, []string{"a", "b", "c"})
	swapped.SetDomain(2, []string{"a", "b"})
	if Database(swapped) == ref {
		t.Errorf("swapping the two domains did not change the canonical form")
	}
}

// TestDatabaseFormIsInjective: relation names are quoted in the form, so
// a name holding a fact's or a header's syntax cannot make two different
// databases render alike.
func TestDatabaseFormIsInjective(t *testing.T) {
	twoFacts := core.NewDatabase()
	twoFacts.MustAddFact("R", core.Const("a"))
	twoFacts.MustAddFact("S", core.Const("b"))
	oneFact := core.NewDatabase()
	oneFact.MustAddFact("R(\"a\")\nS", core.Const("b"))

	uniform := core.NewUniformDatabase([]string{"a"})
	uniform.MustAddFact("R", core.Const("x"))
	header := core.NewDatabase()
	header.MustAddFact("uniform \"a\"\nR", core.Const("x"))

	for _, pair := range [][2]*core.Database{{twoFacts, oneFact}, {uniform, header}} {
		if form := Database(pair[0]); form == Database(pair[1]) {
			t.Errorf("different databases share the form\n%s\n--- and\n%s\n--- form\n%s", pair[0], pair[1], form)
		}
	}
}

// TestKindSeparatesFingerprints: the same (db, q) under different problem
// kinds yields different cache keys.
func TestKindSeparatesFingerprints(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a"})
	db.MustAddFact("R", core.Null(1))
	q := cq.MustParseBCQ("R(x)")
	seen := map[string]Kind{}
	for _, k := range []Kind{KindVal, KindComp, KindCertain, KindPossible} {
		fp := Of(db, q, k)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("kinds %s and %s collide on %s", prev, k, fp)
		}
		seen[fp] = k
	}
}

// TestQueryCanonicalInvariance: variable-renamed and atom-reordered
// queries share a canonical form, which itself parses back to the same
// canonical form (idempotence).
func TestQueryCanonicalInvariance(t *testing.T) {
	groups := [][]string{
		{"R(x, y) ∧ S(y)", "S(b) ∧ R(a, b)", "R(q, w), S(w)"},
		{"R(x, x)", "R(z, z)"},
		{"R(x, y) ∧ S(x) ∧ T(y)", "T(k) ∧ R(j, k) ∧ S(j)"},
		{"A(x) | B(y, y)", "B(q, q) | A(z)"},
		{"!R(x, y)", "! R(a, b)"},
		{"R(x, y) ∧ x ≠ y", "R(a, b) ∧ b != a"},
		{"TRUE"},
	}
	for gi, group := range groups {
		var canon string
		for _, s := range group {
			q, err := cq.Parse(s)
			if err != nil {
				t.Fatalf("group %d: parse %q: %v", gi, s, err)
			}
			c := Query(q)
			if canon == "" {
				canon = c
			} else if c != canon {
				t.Errorf("group %d: %q canonicalizes to %q, want %q", gi, s, c, canon)
			}
			if !strings.HasPrefix(c, "opaque:") {
				reparsed, err := cq.Parse(c)
				if err != nil {
					t.Fatalf("group %d: canonical form %q does not parse: %v", gi, c, err)
				}
				if Query(reparsed) != c {
					t.Errorf("group %d: canonicalization not idempotent: %q → %q", gi, c, Query(reparsed))
				}
			}
		}
	}
}

// TestQueryDistinctions: semantically different queries canonicalize
// differently.
func TestQueryDistinctions(t *testing.T) {
	queries := []string{
		"R(x, x)",
		"R(x, y)",
		"R(x, y) ∧ S(x)",
		"R(x, y) ∧ S(y)",
		"R(x, y) ∧ S(x) ∧ S'(y)",
		"R(x, y) | S(x)",
		"!R(x, y)",
		"R(x, y) ∧ x ≠ y",
		"TRUE",
	}
	seen := map[string]string{}
	for _, s := range queries {
		q, err := cq.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		c := Query(q)
		if prev, dup := seen[c]; dup {
			t.Errorf("%q and %q share canonical form %q", prev, s, c)
		}
		seen[c] = s
	}
}

// TestRenamedRejectsMerging: a non-injective renaming is an error, not a
// silent merge.
func TestRenamedRejectsMerging(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	if _, err := renamed(db, map[core.NullID]core.NullID{1: 5, 2: 5}); err == nil {
		t.Fatal("merging renaming accepted")
	}
}

// TestRenamedComponentsKeepForm: the form sorts the components of a
// database, so a renaming that permutes whole components keeps it. Ties
// between the pairs of a Codd table used to break by null ID, which gave
// R(?1, ?3), R(?2, ?4) and R(?1, ?4), R(?2, ?3) two forms.
func TestRenamedComponentsKeepForm(t *testing.T) {
	crosswise := func(pairs [][2]core.NullID) *core.Database {
		db := core.NewDatabase()
		for _, p := range pairs {
			db.MustAddFact("R", core.Null(p[0]), core.Null(p[1]))
			if err := db.SetDomain(p[0], []string{"a", "b"}); err != nil {
				t.Fatal(err)
			}
			if err := db.SetDomain(p[1], []string{"c", "d"}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	a, b := crosswise([][2]core.NullID{{1, 3}, {2, 4}}), crosswise([][2]core.NullID{{1, 4}, {2, 3}})
	if Database(a) != Database(b) || Of(a, digestQuery, KindVal) != Of(b, digestQuery, KindVal) {
		t.Fatalf("crosswise Codd pairs got two forms:\n%s\n--- and\n%s", Database(a), Database(b))
	}

	// The Codd table of the serve-cold workload: 32 pairs over two domains.
	codd := core.NewDatabase()
	for i := 0; i < 32; i++ {
		x, y := core.NullID(40+2*i), core.NullID(41+2*i)
		codd.MustAddFact("R", core.Null(x), core.Null(y))
		if err := codd.SetDomain(x, []string{"x", "y", "z"}); err != nil {
			t.Fatal(err)
		}
		if err := codd.SetDomain(y, []string{"y", "z", "w"}); err != nil {
			t.Fatal(err)
		}
	}
	form := Database(codd)
	for seed := int64(0); seed < 20; seed++ {
		iso := scramble(t, rand.New(rand.NewSource(seed)), codd, false)
		if got := Database(iso); got != form {
			t.Fatalf("seed %d: a permuted Codd table changed the form\n%s\n--- became\n%s", seed, form, got)
		}
		if DatabaseDigest(iso) != DatabaseDigest(codd) {
			t.Fatalf("seed %d: a permuted Codd table changed the digest", seed)
		}
	}
}

// digestQuery is the query TestRenamedComponentsKeepForm fingerprints
// with.
var digestQuery = cq.MustParseBCQ("R(x, y)")

// TestDigestComposes: an Index built over a database computes the
// digest DatabaseDigest computes from scratch, and equal digests go with
// equal forms.
func TestDigestComposes(t *testing.T) {
	forms, digests := map[Digest]string{}, map[string]Digest{}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r)
		if seed%3 == 0 {
			db = fuzzDB(randomBytes(r))
		}
		want := DatabaseDigest(db)
		if got := NewIndex(db).Digest(); got != want {
			t.Fatalf("seed %d: the index's digest differs from DatabaseDigest\n%s", seed, db)
		}
		form := Database(db)
		if prev, ok := forms[want]; ok && prev != form {
			t.Fatalf("seed %d: one digest for two forms\n%s\n--- and\n%s", seed, prev, form)
		}
		if prev, ok := digests[form]; ok && prev != want {
			t.Fatalf("seed %d: two digests for one form\n%s", seed, form)
		}
		forms[want], digests[form] = form, want
	}
}

// randomBytes returns up to 24 random bytes for fuzzDB.
func randomBytes(r *rand.Rand) []byte {
	b := make([]byte, r.Intn(25))
	r.Read(b)
	return b
}
