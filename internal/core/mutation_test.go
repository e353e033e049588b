package core

import (
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
