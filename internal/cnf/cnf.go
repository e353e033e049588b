// Package cnf implements 3-CNF propositional formulas and the exact
// counters used by the SpanP reductions of Section 6 of the paper: #3SAT
// and #k3SAT, the number of assignments of the first k variables that
// extend to a satisfying assignment (SpanP-complete, Proposition D.3).
package cnf

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
)

// Lit is a literal: +v is variable v (1-based) positive, -v negated.
type Lit int

// Var returns the 1-based variable index of the literal.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Positive reports whether the literal is positive.
func (l Lit) Positive() bool { return l > 0 }

// Clause is a disjunction of exactly three literals.
type Clause [3]Lit

// Formula is a 3-CNF formula over variables 1..NumVars.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// New returns a formula with the given number of variables.
func New(numVars int) *Formula { return &Formula{NumVars: numVars} }

// AddClause appends the clause (a ∨ b ∨ c). Literals must reference
// variables in range and not be zero.
func (f *Formula) AddClause(a, b, c Lit) error {
	for _, l := range []Lit{a, b, c} {
		if l == 0 || l.Var() > f.NumVars {
			return fmt.Errorf("cnf: literal %d out of range (1..%d)", l, f.NumVars)
		}
	}
	f.Clauses = append(f.Clauses, Clause{a, b, c})
	return nil
}

// MustAddClause is AddClause that panics on error.
func (f *Formula) MustAddClause(a, b, c Lit) {
	if err := f.AddClause(a, b, c); err != nil {
		panic(err)
	}
}

// Eval reports whether the assignment (assign[i] is the value of variable
// i+1) satisfies the formula.
func (f *Formula) Eval(assign []bool) bool {
	for _, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if assign[l.Var()-1] == l.Positive() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// String renders the formula as "(x1 ∨ ¬x2 ∨ x3) ∧ …".
func (f *Formula) String() string {
	var parts []string
	for _, c := range f.Clauses {
		lits := make([]string, 3)
		for i, l := range c {
			if l.Positive() {
				lits[i] = fmt.Sprintf("x%d", l.Var())
			} else {
				lits[i] = fmt.Sprintf("¬x%d", l.Var())
			}
		}
		parts = append(parts, "("+strings.Join(lits, " ∨ ")+")")
	}
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

const maxBruteVars = 24

// CountSatisfyingPrefixes returns #k3SAT(f, k): the number of assignments of
// the first k variables that can be extended to a satisfying assignment of
// f (Definition D.2 of the paper). k must lie in 1..NumVars.
func (f *Formula) CountSatisfyingPrefixes(k int) (*big.Int, error) {
	if k < 1 || k > f.NumVars {
		return nil, fmt.Errorf("cnf: prefix length %d out of range 1..%d", k, f.NumVars)
	}
	if f.NumVars > maxBruteVars {
		return nil, fmt.Errorf("cnf: %d variables exceeds brute-force bound %d", f.NumVars, maxBruteVars)
	}
	assign := make([]bool, f.NumVars)
	var extend func(i int) bool
	extend = func(i int) bool {
		if i == f.NumVars {
			return f.Eval(assign)
		}
		assign[i] = false
		if extend(i + 1) {
			return true
		}
		assign[i] = true
		return extend(i + 1)
	}
	count := int64(0)
	var prefix func(i int)
	prefix = func(i int) {
		if i == k {
			if extend(k) {
				count++
			}
			return
		}
		assign[i] = false
		prefix(i + 1)
		assign[i] = true
		prefix(i + 1)
	}
	prefix(0)
	return big.NewInt(count), nil
}

// Random3CNF returns a random 3-CNF with the given number of variables and
// clauses: each clause picks three distinct variables and random signs.
// numVars must be at least 3.
func Random3CNF(numVars, numClauses int, r *rand.Rand) (*Formula, error) {
	if numVars < 3 {
		return nil, fmt.Errorf("cnf: need at least 3 variables, got %d", numVars)
	}
	f := New(numVars)
	for i := 0; i < numClauses; i++ {
		vars := r.Perm(numVars)[:3]
		lits := make([]Lit, 3)
		for j, v := range vars {
			lits[j] = Lit(v + 1)
			if r.Intn(2) == 0 {
				lits[j] = -lits[j]
			}
		}
		f.MustAddClause(lits[0], lits[1], lits[2])
	}
	return f, nil
}
