package fingerprint

import (
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
)

// TestIndexSplitsAndMerges: removing the fact that bridges two groups of
// nulls leaves two components, putting it back merges them, a removal
// that takes a null out of the table forgets it, and after every write
// the index has the digest DatabaseDigest computes from scratch.
func TestIndexSplitsAndMerges(t *testing.T) {
	db := core.NewDatabase()
	for n := core.NullID(1); n <= 4; n++ {
		if err := db.SetDomain(n, []string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("S", core.Null(2), core.Null(3))
	db.MustAddFact("T", core.Null(3), core.Null(4))
	db.MustAddFact("G", core.Const("a"))
	x := NewIndex(db)
	check := func(step string, components int) {
		t.Helper()
		if x.Digest() != DatabaseDigest(db) {
			t.Fatalf("%s: the index's digest differs from DatabaseDigest\n%s", step, db)
		}
		if len(x.digests) != components {
			t.Fatalf("%s: the index keeps %d components, want %d", step, len(x.digests), components)
		}
	}
	check("built", 1)

	bridge := core.Fact{Rel: "S", Args: []core.Value{core.Null(2), core.Null(3)}}
	db.RemoveFact(bridge.Rel, bridge.Args...)
	if x.RemoveFact(bridge) {
		t.Fatal("removing the bridge reported a null leaving the table")
	}
	check("split", 2)
	db.MustAddFact(bridge.Rel, bridge.Args...)
	if x.AddFact(bridge) {
		t.Fatal("adding the bridge back reported a new null")
	}
	check("merged", 1)

	leaf := core.Fact{Rel: "T", Args: []core.Value{core.Null(3), core.Null(4)}}
	db.RemoveFact(leaf.Rel, leaf.Args...)
	if !x.RemoveFact(leaf) {
		t.Fatal("?4 left the table unreported")
	}
	if x.of[4] != nil {
		t.Fatal("a null that left the table still has a component")
	}
	check("?4 gone", 1)
	if err := db.ExtendDomain(4, "c"); err != nil {
		t.Fatal(err)
	}
	if x.Touch(4) {
		t.Fatal("?4 is not in the table, but Touch says its domain counts")
	}
	check("?4 re-domained", 1)
	if err := db.ExtendDomain(1, "c"); err != nil {
		t.Fatal(err)
	}
	if !x.Touch(1) {
		t.Fatal("Touch does not find ?1")
	}
	check("?1 re-domained", 1)

	ground := core.Fact{Rel: "G", Args: []core.Value{core.Const("b")}}
	db.MustAddFact(ground.Rel, ground.Args...)
	x.AddFact(ground)
	check("ground added", 1)
	db.RemoveFact("G", core.Const("a"))
	x.RemoveFact(core.Fact{Rel: "G", Args: []core.Value{core.Const("a")}})
	check("ground removed", 1)
}

// TestIndexFollowsRandomWrites: random adds, removals and domain
// extensions, each told to the index, on random databases, uniform and
// not; after each the index's digest is DatabaseDigest's.
func TestIndexFollowsRandomWrites(t *testing.T) {
	consts := []string{"a", "b", "c"}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r)
		if seed%3 == 0 {
			db = fuzzDB(randomBytes(r))
		}
		x := NewIndex(db)
		for step := 0; step < 25; step++ {
			switch op := r.Intn(5); {
			case op < 2:
				rel, arity := "W", 2
				if op == 1 {
					rel, arity = "V", 1
				}
				args := make([]core.Value, arity)
				for i := range args {
					if r.Intn(3) > 0 {
						n := core.NullID(1 + r.Intn(7))
						if !db.Uniform() && db.Domain(n) == nil {
							if err := db.SetDomain(n, consts[:1+r.Intn(3)]); err != nil {
								t.Fatal(err)
							}
						}
						args[i] = core.Null(n)
					} else {
						args[i] = core.Const(consts[r.Intn(3)])
					}
				}
				before := db.Version()
				if err := db.AddFact(rel, args...); err != nil {
					t.Fatal(err)
				}
				if db.Version() != before {
					x.AddFact(core.Fact{Rel: rel, Args: args})
				}
			case op < 4:
				facts := db.Facts()
				if len(facts) == 0 {
					continue
				}
				f := facts[r.Intn(len(facts))]
				db.RemoveFact(f.Rel, f.Args...)
				x.RemoveFact(f)
			default:
				if db.Uniform() {
					if err := db.ExtendUniformDomain(consts[r.Intn(3)] + "'"); err != nil {
						t.Fatal(err)
					}
					continue
				}
				nulls := db.Nulls()
				if len(nulls) == 0 {
					continue
				}
				n := nulls[r.Intn(len(nulls))]
				before := db.Version()
				if err := db.ExtendDomain(n, consts[r.Intn(3)]+"'"); err != nil {
					t.Fatal(err)
				}
				if db.Version() != before {
					x.Touch(n)
				}
			}
			if x.Digest() != DatabaseDigest(db) {
				t.Fatalf("seed %d step %d: the index's digest differs from DatabaseDigest\n%s", seed, step, db)
			}
		}
	}
}
