package solver

import (
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
)

// checkDigest compares the session's maintained digest and its canonical
// form against a rebuild on a clone of the database, byte for byte.
func checkDigest(t *testing.T, p *PreparedDB, seed int64, step int) {
	t.Helper()
	clone := p.Database().Clone()
	for _, q := range mutationQueries {
		for _, kind := range []fingerprint.Kind{fingerprint.KindVal, fingerprint.KindComp} {
			if got, want := p.Fingerprint(q, kind), fingerprint.Of(clone, q, kind); got != want {
				t.Fatalf("seed %d step %d: the session fingerprints %v as %s, a rebuild as %s\n%s",
					seed, step, q, got, want, clone)
			}
		}
	}
	if got, want := p.CanonicalForm(), fingerprint.Database(clone); got != want {
		t.Fatalf("seed %d step %d: the session's form differs from a rebuild's\n%s\n--- rebuild\n%s", seed, step, got, want)
	}
}

// TestSessionDigestMatchesRebuild: after every write of the
// mutateSession generator, the digest the session maintains one
// component at a time equals the digest of a fresh canonicalization.
func TestSessionDigestMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		p, err := NewSolver().Prepare(seedDB(int(seed % 3)))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			mutateSession(t, r, p)
			checkDigest(t, p, seed, step)
		}
	}
}

// FuzzSessionDigestMatchesRebuild drives the same property from
// fuzz-provided operation bytes: each byte seeds one write of the
// mutateSession generator (session writes, direct writes, domain
// extensions and removals), on one of the three seedDB shapes.
func FuzzSessionDigestMatchesRebuild(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x17, 0x90}, int64(1))
	f.Add([]byte{0xff, 0x00, 0x33, 0x07, 0x21}, int64(2))
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70}, int64(3))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		p, err := NewSolver().Prepare(seedDB(int(uint64(seed) % 3)))
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			mutateSession(t, rand.New(rand.NewSource(seed*1009+int64(op))), p)
			checkDigest(t, p, seed, i)
		}
	})
}

// TestRemovalSplitsComponent: removing the fact that bridges two groups
// of nulls splits their component, putting it back merges the pieces,
// and removing a fact that takes a null out of the table changes the
// total; after each write the session's digest is a rebuild's.
func TestRemovalSplitsComponent(t *testing.T) {
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
	p, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	bridge := []core.Value{core.Null(2), core.Null(3)}
	if !p.RemoveFact("S", bridge...) {
		t.Fatal("the bridge was not present")
	}
	checkDigest(t, p, 0, 0)
	if err := p.AddFact("S", bridge...); err != nil {
		t.Fatal(err)
	}
	checkDigest(t, p, 0, 1)
	// A removal that takes a null out of the table changes the total.
	p.RemoveFact("T", core.Null(3), core.Null(4))
	checkDigest(t, p, 0, 2)
	if got := p.TotalValuations().Int64(); got != 8 {
		t.Fatalf("total after ?4 left the table: %d, want 8", got)
	}
	res, err := p.Count(t.Context(), cq.MustParseBCQ("R(x, y) ∧ S(y, z)"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count.Int64() != 8 {
		t.Fatalf("count %v, want 8", res.Count)
	}
}
