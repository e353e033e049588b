package core

import (
	"math/big"
	"testing"
)

func TestValueBasics(t *testing.T) {
	c := Const("a")
	if c.IsNull() {
		t.Fatal("constant reported as null")
	}
	if c.Constant() != "a" {
		t.Fatalf("Constant() = %q", c.Constant())
	}
	n := Null(3)
	if !n.IsNull() || n.NullID() != 3 {
		t.Fatalf("bad null: %v", n)
	}
	if n.String() != "?3" {
		t.Fatalf("null String() = %q", n.String())
	}
}

func TestNullPanicsOnInvalidID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Null(0) did not panic")
		}
	}()
	Null(0)
}

func TestConstantPanicsOnNull(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Constant() on null did not panic")
		}
	}()
	Null(1).Constant()
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue("?12")
	if err != nil || !v.IsNull() || v.NullID() != 12 {
		t.Fatalf("ParseValue(?12) = %v, %v", v, err)
	}
	v, err = ParseValue("abc")
	if err != nil || v.IsNull() || v.Constant() != "abc" {
		t.Fatalf("ParseValue(abc) = %v, %v", v, err)
	}
	if _, err := ParseValue("?x"); err == nil {
		t.Fatal("ParseValue(?x) should fail")
	}
	if _, err := ParseValue("?0"); err == nil {
		t.Fatal("ParseValue(?0) should fail")
	}
}

func TestFactKeyDistinguishesNullFromConstant(t *testing.T) {
	f1 := NewFact("R", Null(1))
	f2 := NewFact("R", Const("?1"))
	if f1.Key() == f2.Key() {
		t.Fatal("fact keys collide between null ?1 and constant \"?1\"")
	}
}

func TestFactNullsAndGround(t *testing.T) {
	f := NewFact("R", Null(2), Const("a"), Null(2), Null(5))
	if f.IsGround() {
		t.Fatal("fact with nulls reported ground")
	}
	ns := f.Nulls()
	if len(ns) != 2 || ns[0] != 2 || ns[1] != 5 {
		t.Fatalf("Nulls() = %v", ns)
	}
	g := NewFact("R", Const("a"))
	if !g.IsGround() {
		t.Fatal("ground fact not reported ground")
	}
}

func TestParseFactRoundTrip(t *testing.T) {
	for _, s := range []string{"R(a, ?1)", "S(x)", "Edge(u, v, ?7)"} {
		f, err := ParseFact(s)
		if err != nil {
			t.Fatalf("ParseFact(%q): %v", s, err)
		}
		if f.String() != s {
			t.Fatalf("round trip %q -> %q", s, f.String())
		}
	}
}

func TestParseFactErrors(t *testing.T) {
	for _, s := range []string{"", "R", "R()", "(a)", "R(a", "R(a,,b)", "R(?0)", "uniform \"a\"\nR(x)", "R\tS(a)"} {
		if _, err := ParseFact(s); err == nil {
			t.Errorf("ParseFact(%q) should fail", s)
		}
	}
}

func TestAddFactSetSemanticsAndArity(t *testing.T) {
	d := NewDatabase()
	if err := d.AddFact("R", Const("a"), Const("b")); err != nil {
		t.Fatal(err)
	}
	if err := d.AddFact("R", Const("a"), Const("b")); err != nil {
		t.Fatal(err)
	}
	if len(d.Facts()) != 1 {
		t.Fatalf("duplicate fact not deduplicated: %d facts", len(d.Facts()))
	}
	if err := d.AddFact("R", Const("a")); err == nil {
		t.Fatal("arity mismatch not detected")
	}
	if err := d.AddFact("S"); err == nil {
		t.Fatal("zero-arity fact accepted")
	}
}

func TestCoddDetection(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Null(1), Const("a"))
	d.MustAddFact("S", Null(2))
	if !d.IsCodd() {
		t.Fatal("Codd table not recognized")
	}
	d.MustAddFact("T", Null(1))
	if d.IsCodd() {
		t.Fatal("repeated null across facts not detected")
	}

	d2 := NewDatabase()
	d2.MustAddFact("R", Null(1), Null(1))
	if d2.IsCodd() {
		t.Fatal("repeated null within a fact not detected")
	}
}

func TestValidateMissingDomain(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Null(1))
	if err := d.Validate(); err == nil {
		t.Fatal("missing domain not detected")
	}
	if err := d.SetDomain(1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetDomainErrors(t *testing.T) {
	u := NewUniformDatabase([]string{"a"})
	if err := u.SetDomain(1, []string{"a"}); err == nil {
		t.Fatal("SetDomain on uniform database should fail")
	}
	d := NewDatabase()
	if err := d.SetDomain(0, []string{"a"}); err == nil {
		t.Fatal("SetDomain on null 0 should fail")
	}
}

func TestUniformDomainDedup(t *testing.T) {
	u := NewUniformDatabase([]string{"a", "b", "a"})
	if got := u.UniformDomain(); len(got) != 2 {
		t.Fatalf("domain not deduplicated: %v", got)
	}
}

func TestNumValuations(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Null(1), Null(2))
	d.SetDomain(1, []string{"a", "b", "c"})
	d.SetDomain(2, []string{"a", "b"})
	n, err := d.NumValuations()
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("NumValuations = %v, want 6", n)
	}
}

func TestForEachValuationCount(t *testing.T) {
	d := NewUniformDatabase([]string{"0", "1"})
	d.MustAddFact("R", Null(1), Null(2), Null(3))
	count := 0
	seen := make(map[string]bool)
	err := d.ForEachValuation(func(v Valuation) bool {
		count++
		seen[v.String()] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 || len(seen) != 8 {
		t.Fatalf("enumerated %d valuations (%d distinct), want 8", count, len(seen))
	}
}

func TestForEachValuationNoNulls(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Const("a"))
	count := 0
	if err := d.ForEachValuation(func(v Valuation) bool {
		if len(v) != 0 {
			t.Fatalf("unexpected assignments: %v", v)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("expected exactly one empty valuation, got %d", count)
	}
}

func TestForEachValuationEmptyDomain(t *testing.T) {
	d := NewUniformDatabase(nil)
	d.MustAddFact("R", Null(1))
	count := 0
	if err := d.ForEachValuation(func(Valuation) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("empty domain should give 0 valuations, got %d", count)
	}
}

func TestForEachValuationEarlyStop(t *testing.T) {
	d := NewUniformDatabase([]string{"a", "b"})
	d.MustAddFact("R", Null(1), Null(2))
	count := 0
	d.ForEachValuation(func(Valuation) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop failed: %d calls", count)
	}
}

// TestExample21 reproduces Example 2.1 of the paper.
func TestExample21(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("S", Null(1), Null(1))
	d.MustAddFact("S", Const("a"), Null(2))
	d.SetDomain(1, []string{"a", "b"})
	d.SetDomain(2, []string{"a", "c"})

	if d.IsCodd() {
		t.Fatal("the database of Example 2.1 is not a Codd table")
	}

	nu1 := Valuation{1: "b", 2: "c"}
	inst := d.Apply(nu1)
	if !inst.Has("S", "b", "b") || !inst.Has("S", "a", "c") || inst.Size() != 2 {
		t.Fatalf("ν1(T) wrong: %v", inst)
	}

	nu2 := Valuation{1: "a", 2: "a"}
	inst2 := d.Apply(nu2)
	if !inst2.Has("S", "a", "a") || inst2.Size() != 1 {
		t.Fatalf("ν2(T) should be {S(a,a)}: %v", inst2)
	}

	// ν mapping both nulls to b is not a valuation: b ∉ dom(?2).
	bad := Valuation{1: "b", 2: "b"}
	if bad.IsValuationOf(d) {
		t.Fatal("ν(⊥2)=b should not be a valuation")
	}
	if !nu1.IsValuationOf(d) || !nu2.IsValuationOf(d) {
		t.Fatal("ν1/ν2 should be valuations")
	}
}

// TestExample22Completions reproduces the valuation/completion counts of
// Example 2.2 (Figure 1): 6 valuations, 5 distinct completions.
func TestExample22Completions(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("S", Const("a"), Const("b"))
	d.MustAddFact("S", Null(1), Const("a"))
	d.MustAddFact("S", Const("a"), Null(2))
	d.SetDomain(1, []string{"a", "b", "c"})
	d.SetDomain(2, []string{"a", "b"})

	total, err := d.NumValuations()
	if err != nil {
		t.Fatal(err)
	}
	if total.Cmp(big.NewInt(6)) != 0 {
		t.Fatalf("total valuations = %v, want 6", total)
	}

	comps := make(map[string]bool)
	d.ForEachValuation(func(v Valuation) bool {
		comps[d.Apply(v).CanonicalKey()] = true
		return true
	})
	// Figure 1 shows 6 valuations; (a,a) and (c,a)... each yields a distinct
	// database except ν(⊥1)=a,ν(⊥2)=a and ν(⊥1)=a,ν(⊥2)=b collapsing? No:
	// the figure lists completions {ab,aa}, {ab,aa}?; exactly: (a,a)->{ab,aa},
	// (a,b)->{ab,aa}... Figure 1 shows (a,a) and (a,b) giving {S(a,b),S(a,a)}
	// and {S(a,b),S(a,a)} respectively -- wait, (a,b): S(a,a),S(a,b) too.
	// Distinct completions: {ab,aa}, {ab,ba,aa}, {ab,ba}, {ab,ca,aa}, {ab,ca}.
	if len(comps) != 5 {
		t.Fatalf("distinct completions = %d, want 5", len(comps))
	}
}

func TestApplyPanicsOnMissingNull(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Null(1))
	defer func() {
		if recover() == nil {
			t.Fatal("Apply with incomplete valuation did not panic")
		}
	}()
	d.Apply(Valuation{})
}

func TestInstanceBasics(t *testing.T) {
	i := NewInstance()
	i.Add("R", "a", "b")
	i.Add("R", "a", "b")
	i.Add("S", "c")
	if i.Size() != 2 {
		t.Fatalf("Size = %d, want 2", i.Size())
	}
	if !i.Has("R", "a", "b") || i.Has("R", "b", "a") {
		t.Fatal("Has wrong")
	}
	rels := i.Relations()
	if len(rels) != 2 || rels[0] != "R" || rels[1] != "S" {
		t.Fatalf("Relations = %v", rels)
	}
}

func TestInstanceCanonicalKeyOrderIndependent(t *testing.T) {
	a := NewInstance()
	a.Add("R", "x")
	a.Add("R", "y")
	b := NewInstance()
	b.Add("R", "y")
	b.Add("R", "x")
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("canonical keys differ for equal instances")
	}
	c := NewInstance()
	c.Add("R", "x")
	if a.CanonicalKey() == c.CanonicalKey() {
		t.Fatal("canonical keys equal for different instances")
	}
}

func TestInstanceContains(t *testing.T) {
	a := NewInstance()
	a.Add("R", "x")
	a.Add("R", "y")
	b := NewInstance()
	b.Add("R", "x")
	if !a.Contains(b) || b.Contains(a) {
		t.Fatal("Contains wrong")
	}
}

func TestDatabaseCloneIndependent(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Null(1))
	d.SetDomain(1, []string{"a"})
	c := d.Clone()
	c.MustAddFact("R", Null(2))
	c.SetDomain(2, []string{"b"})
	if len(d.Facts()) != 1 || len(c.Facts()) != 2 {
		t.Fatal("clone not independent")
	}
	if d.Uniform() != c.Uniform() {
		t.Fatal("clone changed uniformity")
	}
	u := NewUniformDatabase([]string{"x"})
	u.MustAddFact("R", Null(1))
	cu := u.Clone()
	if !cu.Uniform() || cu.UniformDomain()[0] != "x" {
		t.Fatal("uniform clone wrong")
	}
}

func TestParseDatabaseNonUniform(t *testing.T) {
	src := `
# a comment
dom ?1 a b
dom ?2 a c
S(?1, ?1)
S(a, ?2)
`
	d, err := ParseDatabaseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if d.Uniform() {
		t.Fatal("parsed database should be non-uniform")
	}
	if len(d.Facts()) != 2 {
		t.Fatalf("facts = %d", len(d.Facts()))
	}
	if got := d.Domain(2); len(got) != 2 || got[1] != "c" {
		t.Fatalf("dom(?2) = %v", got)
	}
	// Round trip through String.
	d2, err := ParseDatabaseString(d.String())
	if err != nil {
		t.Fatal(err)
	}
	if d2.String() != d.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", d.String(), d2.String())
	}
}

func TestParseDatabaseUniform(t *testing.T) {
	d, err := ParseDatabaseString("uniform 0 1\nR(?1, ?2)\n")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Uniform() || len(d.UniformDomain()) != 2 {
		t.Fatal("uniform parse wrong")
	}
}

func TestParseDatabaseErrors(t *testing.T) {
	bad := []string{
		"uniform a\nuniform b\n",
		"uniform a\ndom ?1 a\n",
		"dom ?1 a\nuniform b\n",
		"dom\n",
		"dom x a\n",
		"R(\n",
		"R(a)\nR(a, b)\n",
	}
	for _, src := range bad {
		if _, err := ParseDatabaseString(src); err == nil {
			t.Errorf("ParseDatabaseString(%q) should fail", src)
		}
	}
}

func TestFactsOfAndRelations(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Const("a"))
	d.MustAddFact("S", Const("b"))
	d.MustAddFact("R", Const("c"))
	if got := d.FactsOf("R"); len(got) != 2 {
		t.Fatalf("FactsOf(R) = %v", got)
	}
	if got := d.Relations(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Fatalf("Relations = %v", got)
	}
	if d.Arity("R") != 1 || d.Arity("missing") != 0 {
		t.Fatal("Arity wrong")
	}
}

func TestNullsSortedAndHasNull(t *testing.T) {
	d := NewUniformDatabase([]string{"a"})
	d.MustAddFact("R", Null(5))
	d.MustAddFact("R", Null(2))
	d.MustAddFact("R", Null(9))
	ns := d.Nulls()
	if len(ns) != 3 || ns[0] != 2 || ns[1] != 5 || ns[2] != 9 {
		t.Fatalf("Nulls = %v", ns)
	}
	if !d.HasNull(5) || d.HasNull(1) {
		t.Fatal("HasNull wrong")
	}
}

func TestValuationStringAndClone(t *testing.T) {
	v := Valuation{2: "b", 1: "a"}
	if got := v.String(); got != "{?1→a, ?2→b}" {
		t.Fatalf("Valuation.String = %q", got)
	}
	c := v.Clone()
	c[1] = "z"
	if v[1] != "a" {
		t.Fatal("Clone not independent")
	}
}

func TestDatabaseStringStable(t *testing.T) {
	d := NewUniformDatabase([]string{"a", "b"})
	d.MustAddFact("R", Null(1), Const("a"))
	want := "uniform a b\nR(?1, a)\n"
	if d.String() != want {
		t.Fatalf("String = %q, want %q", d.String(), want)
	}
}

func TestApplySetSemanticsCollapse(t *testing.T) {
	// Two facts that collapse under a valuation.
	d := NewUniformDatabase([]string{"a"})
	d.MustAddFact("R", Null(1))
	d.MustAddFact("R", Const("a"))
	inst := d.Apply(Valuation{1: "a"})
	if inst.Size() != 1 {
		t.Fatalf("set semantics violated: %d facts", inst.Size())
	}
}

func TestFactStringsParseableWhitespace(t *testing.T) {
	f, err := ParseFact("  R( a ,  ?2 )  ")
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != "R(a, ?2)" {
		t.Fatalf("got %q", f.String())
	}
}
