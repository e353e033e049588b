package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

func TestRemoveFactKeepsOrderAndIndexes(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Const("a"), Null(1))
	d.MustAddFact("R", Const("b"), Const("c"))
	d.MustAddFact("S", Null(2))
	d.MustAddFact("R", Const("d"), Null(1))
	if err := d.SetDomain(1, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetDomain(2, []string{"x"}); err != nil {
		t.Fatal(err)
	}

	if got := d.RemoveFact("R", Const("b"), Const("c")); !got {
		t.Fatalf("RemoveFact of a present fact returned false")
	}
	if got := d.RemoveFact("R", Const("b"), Const("c")); got {
		t.Fatalf("RemoveFact of an absent fact returned true")
	}

	wantOrder := []string{"R(a, ?1)", "S(?2)", "R(d, ?1)"}
	var gotOrder []string
	for _, f := range d.Facts() {
		gotOrder = append(gotOrder, f.String())
	}
	if !reflect.DeepEqual(gotOrder, wantOrder) {
		t.Fatalf("Facts() order after removal = %v, want %v", gotOrder, wantOrder)
	}
	var gotRel []string
	for _, f := range d.FactsOf("R") {
		gotRel = append(gotRel, f.String())
	}
	if want := []string{"R(a, ?1)", "R(d, ?1)"}; !reflect.DeepEqual(gotRel, want) {
		t.Fatalf("FactsOf(R) after removal = %v, want %v", gotRel, want)
	}

	// The key index must have been re-pointed: removing another fact by
	// key still works, and duplicate adds are still detected.
	if err := d.AddFact("R", Const("d"), Null(1)); err != nil {
		t.Fatal(err)
	}
	if len(d.Facts()) != 3 {
		t.Fatalf("duplicate add after removal changed the table: %d facts", len(d.Facts()))
	}
	if !d.RemoveFact("R", Const("d"), Null(1)) {
		t.Fatalf("RemoveFact by key after an earlier removal failed")
	}

	// Arity stays registered for emptied relations.
	d.RemoveFact("S", Null(2))
	if err := d.AddFact("S", Const("a"), Const("b")); err == nil {
		t.Fatalf("arity registration was lost after emptying the relation")
	}
}

// TestRemoveFactFromManyFacts removes a shuffled third of two
// interleaved relations of many facts, among them a constant spelled
// like a null, and checks Facts() and FactsOf() against the kept facts
// in insertion order, set semantics on re-adds, and the null counts.
func TestRemoveFactFromManyFacts(t *testing.T) {
	const n = 600
	r := rand.New(rand.NewSource(7))
	d := NewUniformDatabase([]string{"a", "b"})
	var all []Fact
	for i := 0; i < n; i++ {
		f := Fact{Rel: "R", Args: []Value{Const(fmt.Sprintf("c%d", i)), Null(NullID(1 + i%40))}}
		switch {
		case i%2 == 1:
			f = Fact{Rel: "S", Args: []Value{Null(NullID(1 + i%40)), Const(fmt.Sprintf("c%d", i))}}
		case i == 10:
			f.Args[1] = Const("?1")
		}
		d.MustAddFact(f.Rel, f.Args...)
		all = append(all, f)
	}
	removed := make(map[int]bool)
	for _, i := range r.Perm(n)[:n/3] {
		if !d.RemoveFact(all[i].Rel, all[i].Args...) {
			t.Fatalf("RemoveFact(%v) of a present fact returned false", all[i])
		}
		removed[i] = true
		if d.RemoveFact(all[i].Rel, all[i].Args...) {
			t.Fatalf("RemoveFact(%v) twice returned true", all[i])
		}
	}
	check := func(stage string, want []Fact) {
		t.Helper()
		if got := d.Facts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Facts() holds %d facts, want the %d kept ones in insertion order", stage, len(got), len(want))
		}
		for _, rel := range []string{"R", "S"} {
			var wantRel []Fact
			for _, f := range want {
				if f.Rel == rel {
					wantRel = append(wantRel, f)
				}
			}
			if got := d.FactsOf(rel); !reflect.DeepEqual(got, wantRel) {
				t.Fatalf("%s: FactsOf(%s) holds %d facts, want %d in insertion order", stage, rel, len(got), len(wantRel))
			}
		}
		refs := make(map[NullID]bool)
		for _, f := range want {
			for _, a := range f.Args {
				if a.IsNull() {
					refs[a.NullID()] = true
				}
			}
		}
		if got := len(d.Nulls()); got != len(refs) {
			t.Fatalf("%s: %d nulls, want %d", stage, got, len(refs))
		}
		if got, want := d.IsCodd(), scanIsCodd(d); got != want {
			t.Fatalf("%s: IsCodd() = %v, scan says %v", stage, got, want)
		}
	}
	var kept []Fact
	for i, f := range all {
		if !removed[i] {
			kept = append(kept, f)
		}
	}
	check("after the removals", kept)

	// A kept fact is a duplicate; a removed one is new and goes last.
	for i, f := range all {
		d.MustAddFact(f.Rel, f.Args...)
		if removed[i] {
			kept = append(kept, f)
		}
	}
	check("after re-adding every fact", kept)
}

func TestRemoveFactNullBookkeeping(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Null(1), Null(1))
	d.MustAddFact("S", Null(1))
	d.MustAddFact("S", Null(2))
	if err := d.SetDomain(1, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetDomain(2, []string{"x", "y", "z"}); err != nil {
		t.Fatal(err)
	}

	d.RemoveFact("R", Null(1), Null(1))
	if !d.HasNull(1) {
		t.Fatalf("null ?1 still occurs in S(?1) but HasNull reports false")
	}
	d.RemoveFact("S", Null(1))
	if d.HasNull(1) {
		t.Fatalf("null ?1 no longer occurs but HasNull reports true")
	}
	if want := []NullID{2}; !reflect.DeepEqual(d.Nulls(), want) {
		t.Fatalf("Nulls() = %v, want %v", d.Nulls(), want)
	}
	n, err := d.NumValuations()
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("NumValuations after removals = %v, want 3", n)
	}
}

// scanIsCodd is the full scan IsCodd used to run on every call: the
// reference its maintained count is checked against.
func scanIsCodd(d *Database) bool {
	seen := make(map[NullID]bool)
	for _, f := range d.Facts() {
		for _, a := range f.Args {
			if a.IsNull() {
				if seen[a.NullID()] {
					return false
				}
				seen[a.NullID()] = true
			}
		}
	}
	return true
}

// TestIsCoddMatchesScan replays random add/remove sequences, among them
// facts that repeat a null inside one fact and duplicate or absent
// facts, and checks IsCodd against a full scan after every step.
func TestIsCoddMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	arg := func() Value {
		if r.Intn(3) == 0 {
			return Const(string(rune('a' + r.Intn(2))))
		}
		return Null(NullID(1 + r.Intn(4)))
	}
	for seq := 0; seq < 200; seq++ {
		d := NewUniformDatabase([]string{"a", "b"})
		for step := 0; step < 40; step++ {
			rel, args := "R", []Value{arg(), arg()}
			if r.Intn(3) == 0 {
				rel, args = "S", []Value{arg()}
			}
			if r.Intn(2) == 0 {
				d.MustAddFact(rel, args...)
			} else {
				d.RemoveFact(rel, args...)
			}
			if got, want := d.IsCodd(), scanIsCodd(d); got != want {
				t.Fatalf("sequence %d step %d: IsCodd() = %v, scan says %v on\n%s", seq, step, got, want, d)
			}
		}
	}
}

func TestExtendDomain(t *testing.T) {
	d := NewDatabase()
	d.MustAddFact("R", Null(1))
	if err := d.SetDomain(1, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	v0 := d.Version()
	if err := d.ExtendDomain(1, "b", "c", "c", "d"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(d.Domain(1), want) {
		t.Fatalf("Domain(1) = %v, want %v", d.Domain(1), want)
	}
	if d.Version() != v0+1 {
		t.Fatalf("version bumped %d times, want 1", d.Version()-v0)
	}
	// All-duplicate extension is a no-op.
	if err := d.ExtendDomain(1, "a", "d"); err != nil {
		t.Fatal(err)
	}
	if d.Version() != v0+1 {
		t.Fatalf("no-op extension bumped the version")
	}
	if err := d.ExtendUniformDomain("x"); err == nil {
		t.Fatalf("ExtendUniformDomain on a non-uniform database did not fail")
	}

	u := NewUniformDatabase([]string{"a"})
	u.MustAddFact("R", Null(1))
	if err := u.ExtendUniformDomain("a", "b"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(u.UniformDomain(), want) {
		t.Fatalf("UniformDomain = %v, want %v", u.UniformDomain(), want)
	}
	if err := u.ExtendDomain(1, "c"); err == nil {
		t.Fatalf("ExtendDomain on a uniform database did not fail")
	}
}

// TestVersion: every effective mutation bumps the version once, and a
// no-op mutation leaves it alone.
func TestVersion(t *testing.T) {
	d := NewDatabase()
	if d.Version() != 0 {
		t.Fatalf("fresh database at version %d", d.Version())
	}
	d.MustAddFact("R", Null(1))
	if err := d.SetDomain(1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	v := d.Version()
	if v != 2 {
		t.Fatalf("after one add and one domain: version %d, want 2", v)
	}

	d.MustAddFact("R", Null(2))
	d.MustAddFact("R", Null(2)) // duplicate: no-op
	if err := d.SetDomain(2, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetDomain(2, []string{"a", "b"}); err != nil { // unchanged: no-op
		t.Fatal(err)
	}
	if d.RemoveFact("R", Const("absent")) { // absent: no-op
		t.Fatal("RemoveFact of an absent fact reported true")
	}
	d.RemoveFact("R", Null(1))
	if err := d.ExtendDomain(2, "c"); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Version(), v+4; got != want {
		t.Fatalf("version %d after four effective mutations from %d, want %d", got, v, want)
	}
}
