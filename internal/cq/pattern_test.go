package cq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPatternOfExample32(t *testing.T) {
	// Example 3.2 of the paper: q' = R'(u,u,y) ∧ S'(z) is a pattern of
	// q = R(u,x,u) ∧ S'(y,y) ∧ T(x,s,z,s).
	q := MustParseBCQ("R(u, x, u) ∧ S'(y, y) ∧ T(x, s, z, s)")
	p := MustParseBCQ("R'(u, u, y) ∧ S'(z)")
	if !IsPatternOf(p, q) {
		t.Fatal("Example 3.2 pattern not recognized")
	}
}

func TestIsPatternOfBasics(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"R(x)", "S(y, z)", true},                          // always a pattern
		{"R(x, x)", "S(u, v, u)", true},                    // repeated var
		{"R(x, x)", "S(u, v)", false},                      // no repeat
		{"R(x, y)", "S(u, v, u)", true},                    // two distinct vars
		{"R(x, y)", "S(u, u)", false},                      // renaming is consistent
		{"R(x), S(x)", "A(u, v), B(v, w)", true},           // shared var v
		{"R(x), S(x)", "A(u), B(v)", false},                // nothing shared
		{"R(x), S(x)", "A(u, u)", false},                   // needs two atoms
		{"R(x), S(x,y), T(y)", "A(x), B(x,y), C(y)", true}, // path itself
		{"R(x), S(x,y), T(y)", "A(x,y), B(y,z), C(z,w)", true},
		{"R(x), S(x,y), T(y)", "A(x,y), B(x,y)", false}, // only two atoms
		{"R(x,y), S(x,y)", "A(u,v,w), B(v,w)", true},
		{"R(x,y), S(x,y)", "A(u,v), B(v,w)", false}, // only one shared var
		{"R(x,y), S(x,y)", "A(u,u), B(u,u)", false}, // x,y must stay distinct
		{"R(x), S(x)", "A(u, v, u)", false},         // one atom only
		{"R(x, y)", "R(x, y) ∧ S(z)", true},
		{"R(x), S(x), T(x)", "A(u), B(u)", false}, // more atoms than q
	}
	for _, c := range cases {
		p, q := MustParseBCQ(c.p), MustParseBCQ(c.q)
		if got := IsPatternOf(p, q); got != c.want {
			t.Errorf("IsPatternOf(%q, %q) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestIsPatternOfReflexiveOnCanonicalPatterns(t *testing.T) {
	pats := []*BCQ{PatternRxx, PatternRxSx, PatternPath, PatternRxySxy, PatternRxy, PatternRx}
	for _, p := range pats {
		if !IsPatternOf(p, p) {
			t.Errorf("pattern %v not a pattern of itself", p)
		}
	}
}

func TestPatternHierarchy(t *testing.T) {
	// Known implications between the canonical patterns.
	// Path contains R(x)∧S(x); R(x,y)∧S(x,y) contains R(x,y) and R(x)∧S(x).
	if !IsPatternOf(PatternRxSx, PatternPath) {
		t.Error("R(x)∧S(x) should be a pattern of the path")
	}
	if !IsPatternOf(PatternRxy, PatternPath) {
		t.Error("R(x,y) should be a pattern of the path")
	}
	if !IsPatternOf(PatternRxy, PatternRxySxy) {
		t.Error("R(x,y) should be a pattern of R(x,y)∧S(x,y)")
	}
	if !IsPatternOf(PatternRxSx, PatternRxySxy) {
		t.Error("R(x)∧S(x) should be a pattern of R(x,y)∧S(x,y)")
	}
	if IsPatternOf(PatternRxx, PatternRxy) || IsPatternOf(PatternRxy, PatternRxx) {
		t.Error("R(x,x) and R(x,y) are incomparable")
	}
}

// randomSJFQuery generates a random self-join-free query with up to 4 atoms,
// arity up to 3, over a pool of 4 variables.
func randomSJFQuery(r *rand.Rand) *BCQ {
	nAtoms := 1 + r.Intn(4)
	pool := []string{"x", "y", "z", "w"}
	var atoms []Atom
	for i := 0; i < nAtoms; i++ {
		arity := 1 + r.Intn(3)
		vars := make([]string, arity)
		for j := range vars {
			vars[j] = pool[r.Intn(len(pool))]
		}
		atoms = append(atoms, Atom{Rel: fmt.Sprintf("R%d", i), Vars: vars})
	}
	return &BCQ{Atoms: atoms}
}

// TestPredicatesMatchIsPatternOf cross-validates the fast structural
// predicates against the generic pattern decision procedure on random
// queries.
func TestPredicatesMatchIsPatternOf(t *testing.T) {
	checks := []struct {
		name string
		pat  *BCQ
		pred func(*BCQ) bool
	}{
		{"R(x,x)", PatternRxx, HasRepeatedVarAtom},
		{"R(x)∧S(x)", PatternRxSx, HasSharedVarAtoms},
		{"path", PatternPath, HasPathPattern},
		{"R(x,y)∧S(x,y)", PatternRxySxy, HasDoublySharedPair},
		{"R(x,y)", PatternRxy, func(q *BCQ) bool { return PatternsOf(q).Rxy }},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomSJFQuery(r)
		for _, c := range checks {
			if c.pred(q) != IsPatternOf(c.pat, q) {
				t.Logf("disagreement on %v for pattern %s: pred=%v generic=%v",
					q, c.name, c.pred(q), IsPatternOf(c.pat, q))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// patternFlags are the hard patterns of Table 1 with the PatternsOf flag
// that reports each.
var patternFlags = []struct {
	pat  *BCQ
	flag func(Patterns) bool
}{
	{PatternRxx, func(p Patterns) bool { return p.Rxx }},
	{PatternRxSx, func(p Patterns) bool { return p.RxSx }},
	{PatternPath, func(p Patterns) bool { return p.Path }},
	{PatternRxySxy, func(p Patterns) bool { return p.RxySxy }},
	{PatternRxy, func(p Patterns) bool { return p.Rxy }},
}

// TestPatternsOfMatchesIsPatternOf cross-validates the one-pass flags
// against the generic decision procedure on every hard pattern, over
// random queries of up to six atoms and five variables.
func TestPatternsOfMatchesIsPatternOf(t *testing.T) {
	pool := []string{"x", "y", "z", "w", "v"}
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		var q BCQ
		for i := 0; i < 1+r.Intn(6); i++ {
			vars := make([]string, 1+r.Intn(3))
			for j := range vars {
				vars[j] = pool[r.Intn(len(pool))]
			}
			q.Atoms = append(q.Atoms, Atom{Rel: fmt.Sprintf("R%d", i), Vars: vars})
		}
		got := PatternsOf(&q)
		for _, c := range patternFlags {
			if c.flag(got) != IsPatternOf(c.pat, &q) {
				t.Fatalf("%v: PatternsOf says %v for %v, IsPatternOf %v", &q, c.flag(got), c.pat, IsPatternOf(c.pat, &q))
			}
		}
	}
}

// TestPatternsOfLargeQuery: the hard patterns are connected, so a query
// made of parts that share no variable has a pattern exactly when one of
// its parts does. Unions of more than 64 variable occurrences take the
// allocating path of PatternsOf; each part is checked by IsPatternOf.
func TestPatternsOfLargeQuery(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		var union BCQ
		var want Patterns
		for part := 0; len(union.Atoms) < 40; part++ {
			q := randomSJFQuery(r)
			for _, c := range patternFlags {
				if c.flag(PatternsOf(q)) != IsPatternOf(c.pat, q) {
					t.Fatalf("%v: PatternsOf disagrees with IsPatternOf on %v", q, c.pat)
				}
			}
			p := PatternsOf(q)
			want.Rxx, want.RxSx, want.Path = want.Rxx || p.Rxx, want.RxSx || p.RxSx, want.Path || p.Path
			want.RxySxy, want.Rxy = want.RxySxy || p.RxySxy, want.Rxy || p.Rxy
			for _, a := range q.Atoms {
				vars := make([]string, len(a.Vars))
				for i, v := range a.Vars {
					vars[i] = fmt.Sprintf("%s_%d", v, part)
				}
				union.Atoms = append(union.Atoms, Atom{Rel: fmt.Sprintf("%s_%d", a.Rel, part), Vars: vars})
			}
		}
		if got := PatternsOf(&union); got != want {
			t.Fatalf("seed %d: PatternsOf of the union %+v, the parts %+v", seed, got, want)
		}
	}
}

// TestPatternTransitive checks transitivity of the pattern relation on
// random triples where the intermediate holds.
func TestPatternTransitive(t *testing.T) {
	pats := []*BCQ{PatternRx, PatternRxx, PatternRxSx, PatternPath, PatternRxySxy, PatternRxy}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomSJFQuery(r)
		for _, a := range pats {
			for _, b := range pats {
				if IsPatternOf(a, b) && IsPatternOf(b, q) && !IsPatternOf(a, q) {
					t.Logf("transitivity violated: %v ⊑ %v ⊑ %v", a, b, q)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHelperCharacterizations(t *testing.T) {
	// AllVariablesOccurOnce <=> neither R(x,x) nor R(x)∧S(x) is a pattern.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomSJFQuery(r)
		lhs := AllVariablesOccurOnce(q)
		rhs := !IsPatternOf(PatternRxx, q) && !IsPatternOf(PatternRxSx, q)
		if lhs != rhs {
			t.Logf("AllVariablesOccurOnce mismatch on %v", q)
			return false
		}
		// AllAtomsUnary <=> neither R(x,x) nor R(x,y) is a pattern.
		lhs2 := AllAtomsUnary(q)
		rhs2 := !IsPatternOf(PatternRxx, q) && !IsPatternOf(PatternRxy, q)
		if lhs2 != rhs2 {
			t.Logf("AllAtomsUnary mismatch on %v", q)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestHasSharedVarAtoms(t *testing.T) {
	if HasSharedVarAtoms(MustParseBCQ("R(x, x) ∧ S(y)")) {
		t.Error("R(x,x) ∧ S(y) has no shared variable across atoms")
	}
	if !HasSharedVarAtoms(MustParseBCQ("R(x) ∧ S(x)")) {
		t.Error("R(x) ∧ S(x) shares x")
	}
}
