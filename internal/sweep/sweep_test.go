package sweep

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	words := []string{"a", "b", "", "a", "?1", "\x00x", "b"}
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = in.Intern(w)
	}
	if ids[0] != ids[3] || ids[1] != ids[6] {
		t.Fatalf("re-interning gave fresh ids: %v", ids)
	}
	if in.Len() != 5 {
		t.Fatalf("Len = %d, want 5", in.Len())
	}
	for i, w := range words {
		if got := in.Resolve(ids[i]); got != w {
			t.Fatalf("Resolve(Intern(%q)) = %q", w, got)
		}
		id, ok := in.Lookup(w)
		if !ok || id != ids[i] {
			t.Fatalf("Lookup(%q) = %d, %v", w, id, ok)
		}
	}
	if _, ok := in.Lookup("missing"); ok {
		t.Fatal("Lookup of uninterned string succeeded")
	}
}

func TestInternerResolvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resolve of unknown id did not panic")
		}
	}()
	NewInterner().Resolve(0)
}

// randDB builds a random database; kind 0 = naïve non-uniform, 1 = Codd
// non-uniform, 2 = uniform.
func randDB(r *rand.Rand, kind int) *core.Database {
	doms := [][]string{{"a"}, {"a", "b"}, {"a", "b", "c"}}
	var db *core.Database
	uniform := kind == 2
	if uniform {
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
				case kind == 1 || r.Intn(2) == 0: // Codd tables get fresh nulls
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
	if !uniform {
		for _, n := range db.Nulls() {
			db.SetDomain(n, doms[r.Intn(len(doms))])
		}
	}
	return db
}

// mutateRandom applies one random mutation to db: fact adds (possibly with
// fresh nulls or fresh relations), fact removals, domain extensions and the
// occasional wholesale SetDomain.
func mutateRandom(r *rand.Rand, db *core.Database) {
	vals := []string{"a", "b", "c", "d"}
	rels := []struct {
		name  string
		arity int
	}{{"R", 2}, {"S", 1}, {"T", 2}, {"U", 1}, {"Junk", 2}}
	switch r.Intn(6) {
	case 0, 1, 2: // add a fact (weighted: adds drive most structure)
		rel := rels[r.Intn(len(rels))]
		if a := db.Arity(rel.name); a != 0 {
			rel.arity = a
		}
		nulls := append([]core.NullID(nil), db.Nulls()...)
		maxn := core.NullID(0)
		for _, n := range nulls {
			if n > maxn {
				maxn = n
			}
		}
		args := make([]core.Value, rel.arity)
		for i := range args {
			switch {
			case len(nulls) > 0 && r.Intn(3) == 0:
				args[i] = core.Null(nulls[r.Intn(len(nulls))])
			case r.Intn(3) == 0: // fresh null
				maxn++
				if !db.Uniform() {
					if err := db.ExtendDomain(maxn, vals[:1+r.Intn(2)]...); err != nil {
						panic(err)
					}
				}
				args[i] = core.Null(maxn)
				nulls = append(nulls, maxn)
			default:
				args[i] = core.Const(vals[r.Intn(len(vals))])
			}
		}
		db.MustAddFact(rel.name, args...)
	case 3: // remove a random fact
		facts := db.Facts()
		if len(facts) == 0 {
			return
		}
		f := facts[r.Intn(len(facts))]
		db.RemoveFact(f.Rel, f.Args...)
	case 4: // extend a domain
		if db.Uniform() {
			if err := db.ExtendUniformDomain(vals[r.Intn(len(vals))] + "u"); err != nil {
				panic(err)
			}
			return
		}
		nulls := db.Nulls()
		if len(nulls) == 0 {
			return
		}
		if err := db.ExtendDomain(nulls[r.Intn(len(nulls))], vals[r.Intn(len(vals))]+"x"); err != nil {
			panic(err)
		}
	case 5: // wholesale domain replacement
		if db.Uniform() {
			return
		}
		nulls := db.Nulls()
		if len(nulls) == 0 {
			return
		}
		if err := db.SetDomain(nulls[r.Intn(len(nulls))], vals[:1+r.Intn(3)]); err != nil {
			panic(err)
		}
	}
}

// TestCursorMatchesReference sweeps random databases and checks every
// cursor verdict and completion hash against Database.Apply + Query.Eval +
// Instance.CanonicalKey.
func TestCursorMatchesReference(t *testing.T) {
	queries := []cq.Query{
		cq.MustParseBCQ("R(x, y) ∧ S(y)"),
		cq.MustParseBCQ("R(x, x)"),
		cq.MustParse("S(x) | T(y, y)"),
		&cq.Negation{Inner: cq.MustParseBCQ("R(x, y)")},
		cq.MustParse("R(x, y) ∧ x ≠ y"),
		cq.Tautology{},
		&cq.Func{Name: "has-3-facts", F: func(i *core.Instance) bool { return i.Size() >= 3 }},
	}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, int(seed%3))
		q := queries[r.Intn(len(queries))]
		for _, mode := range []Mode{ModeValuations, ModeCompletions} {
			eng, err := Compile(db, q, mode)
			if err != nil {
				t.Fatal(err)
			}
			space, err := db.ValuationSpace()
			if err != nil {
				t.Fatal(err)
			}
			if eng.TotalSize().Cmp(space.Size()) != 0 {
				t.Fatalf("seed %d: TotalSize %v != space %v", seed, eng.TotalSize(), space.Size())
			}
			if mode == ModeCompletions && eng.Pruned() != 0 {
				t.Fatalf("seed %d: completions mode pruned %d nulls", seed, eng.Pruned())
			}
			checkSweepAgainstReference(t, seed, db, q, eng)
		}
	}
}

func checkSweepAgainstReference(t *testing.T, seed int64, db *core.Database, q cq.Query, eng *Engine) {
	t.Helper()
	size := eng.Size()
	if !size.IsInt64() || size.Int64() > 1<<16 {
		t.Fatalf("seed %d: random space unexpectedly huge (%v)", seed, size)
	}
	if size.Sign() == 0 {
		return
	}
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	hashOf := make(map[string]Hash128) // canonical key -> completion hash
	for i := int64(0); i < size.Int64(); i++ {
		// An independent cursor sought directly to i must agree with the
		// stepped one (Seek vs incremental Step).
		chk := eng.NewCursor()
		if err := chk.Seek(big.NewInt(i)); err != nil {
			t.Fatal(err)
		}
		// Reference verdict via Apply on the full valuation: extend the
		// cursor's (possibly pruned) valuation with arbitrary domain
		// values for pruned nulls — the verdict must not depend on them.
		v := cur.Valuation()
		for _, n := range db.Nulls() {
			if _, ok := v[n]; !ok {
				dom := db.Domain(n)
				v[n] = dom[int(i)%len(dom)]
			}
		}
		inst := db.Apply(v)
		want := q.Eval(inst)
		if got := cur.Matches(); got != want {
			t.Fatalf("seed %d idx %d: Matches = %v, reference %v (valuation %v)", seed, i, got, want, v)
		}
		if got := chk.Matches(); got != want {
			t.Fatalf("seed %d idx %d: seeked Matches = %v, reference %v", seed, i, got, want)
		}
		if eng.mode == ModeCompletions {
			if cur.CompletionHash() != chk.CompletionHash() {
				t.Fatalf("seed %d idx %d: stepped and seeked completion hashes differ", seed, i)
			}
			key := inst.CanonicalKey()
			if prev, ok := hashOf[key]; ok {
				if prev != cur.CompletionHash() {
					t.Fatalf("seed %d idx %d: same completion, different hashes", seed, i)
				}
			} else {
				hashOf[key] = cur.CompletionHash()
			}
			if got, want := cur.Instance().CanonicalKey(), key; got != want {
				t.Fatalf("seed %d idx %d: materialized instance differs:\n%s\nvs\n%s", seed, i, got, want)
			}
		}
		cur.Step()
	}
	if eng.mode == ModeCompletions {
		// Distinct canonical keys must get distinct hashes here (128-bit
		// collisions on random 5-fact instances would indicate a bug, not
		// bad luck).
		seen := make(map[Hash128]string)
		for key, h := range hashOf {
			if other, dup := seen[h]; dup && other != key {
				t.Fatalf("seed %d: hash collision between distinct completions", seed)
			}
			seen[h] = key
		}
	}
}

// TestSnapshotEquality: a cursor equals exactly the snapshots of its own
// completion, across every pair of valuations.
func TestSnapshotEquality(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, int(seed%3))
		eng, err := Compile(db, cq.Tautology{}, ModeCompletions)
		if err != nil {
			t.Fatal(err)
		}
		size := eng.Size()
		if size.Sign() == 0 || size.Int64() > 512 {
			continue
		}
		n := size.Int64()
		snaps := make([]*Snapshot, n)
		keys := make([]string, n)
		cur := eng.NewCursor()
		for i := int64(0); i < n; i++ {
			cur.Seek(big.NewInt(i))
			snaps[i] = cur.Snapshot()
			keys[i] = cur.Instance().CanonicalKey()
		}
		for i := int64(0); i < n; i++ {
			cur.Seek(big.NewInt(i))
			for j := int64(0); j < n; j++ {
				want := keys[i] == keys[j]
				if got := cur.EqualsSnapshot(snaps[j]); got != want {
					t.Fatalf("seed %d: EqualsSnapshot(%d, %d) = %v, want %v", seed, i, j, got, want)
				}
			}
		}
	}
}

// TestRelevantNullPruning: nulls in relations outside sig(q) are factored
// out; the count over the pruned space times the multiplier equals the
// unpruned sweep.
func TestRelevantNullPruning(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("Junk", core.Null(3), core.Const("x"))
	db.MustAddFact("Junk2", core.Null(4))
	db.SetDomain(1, []string{"a", "b"})
	db.SetDomain(2, []string{"a", "b", "c"})
	db.SetDomain(3, []string{"u", "v", "w", "z"})
	db.SetDomain(4, []string{"p", "q"})
	q := cq.MustParseBCQ("R(x, x)")

	eng, err := Compile(db, q, ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pruned() != 2 {
		t.Fatalf("pruned %d nulls, want 2", eng.Pruned())
	}
	if eng.Size().Int64() != 6 || eng.Multiplier().Int64() != 8 || eng.TotalSize().Int64() != 48 {
		t.Fatalf("size/multiplier/total = %v/%v/%v, want 6/8/48", eng.Size(), eng.Multiplier(), eng.TotalSize())
	}

	// Opaque queries must not prune: the engine cannot know the signature.
	opaque, err := Compile(db, &cq.Func{Name: "f", F: func(*core.Instance) bool { return true }}, ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	if opaque.Pruned() != 0 || !opaque.Opaque() {
		t.Fatalf("opaque engine pruned %d (opaque=%v)", opaque.Pruned(), opaque.Opaque())
	}

	// TRUE mentions no relation: everything is pruned, one visit stands
	// for the whole space.
	taut, err := Compile(db, cq.Tautology{}, ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	if taut.Size().Int64() != 1 || taut.Multiplier().Int64() != 48 {
		t.Fatalf("tautology size/multiplier = %v/%v, want 1/48", taut.Size(), taut.Multiplier())
	}
}

// TestSampleMatchesValuationSpace: Cursor.Sample consumes the same RNG
// stream and lands on the same valuation as core.ValuationSpace.Sample.
func TestSampleMatchesValuationSpace(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, int(seed%3))
		space, err := db.ValuationSpace()
		if err != nil {
			t.Fatal(err)
		}
		if space.Size().Sign() == 0 {
			continue
		}
		eng, err := Compile(db, cq.Tautology{}, ModeSample)
		if err != nil {
			t.Fatal(err)
		}
		cur := eng.NewCursor()
		r1 := rand.New(rand.NewSource(seed * 77))
		r2 := rand.New(rand.NewSource(seed * 77))
		for s := 0; s < 10; s++ {
			want, err := space.Sample(r1, nil)
			if err != nil {
				t.Fatal(err)
			}
			cur.Sample(r2)
			got := cur.Valuation()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d sample %d: %v vs %v", seed, s, got, want)
			}
		}
	}
}

// TestSeekOutOfRange: invalid indices are rejected.
func TestSeekOutOfRange(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	db.MustAddFact("R", core.Null(1))
	eng, err := Compile(db, cq.Tautology{}, ModeCompletions)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(-1)); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := cur.Seek(big.NewInt(2)); err == nil {
		t.Fatal("index == size accepted")
	}
}

// TestStepExhaustion: the cursor reports exhaustion exactly at the end.
func TestStepExhaustion(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b", "c"})
	db.MustAddFact("R", core.Null(1), core.Null(2))
	eng, err := Compile(db, cq.MustParseBCQ("R(x, x)"), ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	cur := eng.NewCursor()
	if err := cur.Seek(big.NewInt(0)); err != nil {
		t.Fatal(err)
	}
	steps := 1
	for cur.Step() {
		steps++
	}
	if steps != 9 {
		t.Fatalf("stepped through %d valuations, want 9", steps)
	}
}
