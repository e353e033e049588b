package fingerprint

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
)

// fuzzRels are the relation names fuzzDB draws from. Some imitate the
// canonical form's own syntax: quotes, parentheses and newlines.
var fuzzRels = []string{"R", "S", "T", "R(\"a\")\nS", "uniform \"a\"\nR", `"`, "(", ")", "R\n", ", ?1"}

// fuzzConsts are the constants fuzzDB draws from, for arguments and
// domains alike.
var fuzzConsts = []string{"a", "b", "x", "?1", `"`, "a b", ""}

// fuzzDB builds a database from data. The first byte picks uniform
// (bit 0) and the number of nulls, 1–6. Then come the domains as masks
// over fuzzConsts, one for a uniform database and one per null otherwise
// (mask 0: no domain). Each fact after that is a relation byte, an arity
// byte (1–3) and one byte per argument: even picks a null, odd a
// constant. A fact whose arity disagrees with its relation's is dropped.
func fuzzDB(data []byte) *core.Database {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	subset := func(mask byte) []string {
		var out []string
		for i, c := range fuzzConsts {
			if mask&(1<<i) != 0 {
				out = append(out, c)
			}
		}
		return out
	}
	head := next()
	nulls := 1 + int(head>>1)%6
	var db *core.Database
	if head&1 == 1 {
		db = core.NewUniformDatabase(subset(next()))
	} else {
		db = core.NewDatabase()
		for n := 1; n <= nulls; n++ {
			if mask := next(); mask != 0 {
				if err := db.SetDomain(core.NullID(n), subset(mask)); err != nil {
					panic(err)
				}
			}
		}
	}
	for len(data) > 0 {
		rel := fuzzRels[int(next())%len(fuzzRels)]
		args := make([]core.Value, 1+int(next())%3)
		for i := range args {
			if b := next(); b&1 == 0 {
				args[i] = core.Null(core.NullID(1 + int(b>>1)%nulls))
			} else {
				args[i] = core.Const(fuzzConsts[int(b>>1)%len(fuzzConsts)])
			}
		}
		_ = db.AddFact(rel, args...) // an arity clash drops the fact
	}
	return db
}

// discrete reports whether colour refinement gives every null of each
// component of db its own colour, so that no tie is broken by null ID.
func discrete(db *core.Database) bool {
	r := new(refiner)
	for c := range r.load(db, db.Nulls(), db.Facts()) {
		r.refineComponent(db, c)
		colours := make(map[int32]bool, len(r.colour))
		for _, c := range r.colour {
			colours[c] = true
		}
		if len(colours) != len(r.colour) {
			return false
		}
	}
	return true
}

// isomorphic reports, by trying every bijection of the nulls, whether
// one maps a's facts and domains exactly onto b's.
func isomorphic(a, b *core.Database) bool {
	if a.Uniform() != b.Uniform() || len(a.Facts()) != len(b.Facts()) || len(a.Nulls()) != len(b.Nulls()) {
		return false
	}
	sameSet := func(x, y []string) bool {
		if (x == nil) != (y == nil) {
			return false
		}
		return slices.Equal(slices.Sorted(slices.Values(x)), slices.Sorted(slices.Values(y)))
	}
	if a.Uniform() && !sameSet(a.UniformDomain(), b.UniformDomain()) {
		return false
	}
	keys := make(map[string]bool, len(b.Facts()))
	for _, f := range b.Facts() {
		keys[f.Key()] = true
	}
	na, nb := a.Nulls(), b.Nulls()
	image := make(map[core.NullID]core.NullID, len(na))
	used := make([]bool, len(nb))
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(na) {
			for _, f := range a.Facts() {
				args := make([]core.Value, len(f.Args))
				for j, v := range f.Args {
					args[j] = v
					if v.IsNull() {
						args[j] = core.Null(image[v.NullID()])
					}
				}
				if !keys[core.NewFact(f.Rel, args...).Key()] {
					return false
				}
			}
			return true
		}
		for j, m := range nb {
			if used[j] || (!a.Uniform() && !sameSet(a.Domain(na[i]), b.Domain(m))) {
				continue
			}
			used[j], image[na[i]] = true, m
			if try(i + 1) {
				return true
			}
			used[j] = false
		}
		return false
	}
	return try(0)
}

// FuzzCanonicalForm checks both halves of the canonical form's contract
// on small databases. Invariance: a presentation with shuffled facts,
// rotated domains and renamed nulls has the same form, whenever
// refinement separates the nulls inside each component or the renaming
// keeps the nulls' order (ties inside a component break by null ID).
// Soundness: two databases share a form only if some null bijection maps
// one onto the other.
func FuzzCanonicalForm(f *testing.F) {
	// Collisions of the unquoted relation names: R(a), S(b) against the
	// single fact R("a")\nS(b), and uniform {a} with R(x) against the
	// single fact `uniform "a"\nR`(x).
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 3}, []byte{0, 0, 3, 0, 3})
	f.Add([]byte{1, 1, 0, 0, 5}, []byte{0, 0, 4, 0, 5})
	// A directed triangle, whose tie is broken by null ID, and a Codd pair.
	f.Add([]byte{5, 3, 0, 1, 0, 2, 0, 1, 2, 4, 0, 1, 4, 0}, []byte{6, 3, 3, 3, 3, 0, 1, 0, 2, 0, 1, 4, 6})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dbA, dbB := fuzzDB(a), fuzzDB(b)
		formA, formB := Database(dbA), Database(dbB)
		r := rand.New(rand.NewSource(int64(len(a))<<8 | int64(len(b))))
		for _, db := range []*core.Database{dbA, dbB} {
			form := Database(db)
			if iso := scramble(t, r, db, true); Database(iso) != form {
				t.Fatalf("order-keeping presentation changed the form\n%s\n--- presented as\n%s\n--- forms\n%s\n---\n%s", db, iso, form, Database(iso))
			}
			if !discrete(db) {
				continue
			}
			if iso := scramble(t, r, db, false); Database(iso) != form {
				t.Fatalf("renamed presentation changed the form\n%s\n--- presented as\n%s\n--- forms\n%s\n---\n%s", db, iso, form, Database(iso))
			}
		}
		if formA == formB && !isomorphic(dbA, dbB) {
			t.Fatalf("non-isomorphic databases share a form\n%s\n--- and\n%s\n--- form\n%s", dbA, dbB, formA)
		}
	})
}
