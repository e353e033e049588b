// Package cq implements Boolean queries over relational databases: Boolean
// conjunctive queries (BCQs), self-join-free BCQs (sjfBCQs), unions of BCQs,
// and negations, together with homomorphism-based model checking and the
// pattern relation of Definition 3.1 of Arenas, Barceló and Monet, "Counting
// Problems over Incomplete Databases" (PODS 2020).
package cq

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/incompletedb/incompletedb/internal/core"
)

// Query is a Boolean query: a database either satisfies it or not.
type Query interface {
	// Eval reports whether the complete database satisfies the query.
	Eval(*core.Instance) bool
	// String renders the query in the syntax accepted by Parse.
	String() string
}

// Atom is a relational atom R(x1, ..., xk) whose arguments are variables
// (as in the paper, query atoms contain only variables).
type Atom struct {
	Rel  string
	Vars []string
}

// String renders the atom as "R(x, y)".
func (a Atom) String() string {
	return a.Rel + "(" + strings.Join(a.Vars, ", ") + ")"
}

// DistinctVars returns the distinct variables of the atom in order of first
// occurrence.
func (a Atom) DistinctVars() []string {
	seen := make(map[string]bool, len(a.Vars))
	var out []string
	for _, v := range a.Vars {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// VarCounts returns the number of occurrences of each variable in the atom.
func (a Atom) VarCounts() map[string]int {
	m := make(map[string]int, len(a.Vars))
	for _, v := range a.Vars {
		m[v]++
	}
	return m
}

// BCQ is a Boolean conjunctive query: an existentially quantified
// conjunction of atoms. Quantifiers are implicit (all variables are
// existentially quantified).
type BCQ struct {
	Atoms []Atom
}

// String renders the query as "R(x, y) ∧ S(x)".
func (q *BCQ) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " ∧ ")
}

// Vars returns the distinct variables of the query, sorted.
func (q *BCQ) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// VarOccurrences returns, for each variable, its total number of occurrences
// across all atoms.
func (q *BCQ) VarOccurrences() map[string]int {
	m := make(map[string]int)
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			m[v]++
		}
	}
	return m
}

// Relations returns the distinct relation names of the query (sig(q)),
// sorted.
func (q *BCQ) Relations() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range q.Atoms {
		if !seen[a.Rel] {
			seen[a.Rel] = true
			out = append(out, a.Rel)
		}
	}
	sort.Strings(out)
	return out
}

// SelfJoinFree reports whether no two atoms use the same relation symbol.
// It sorts the relation names, in a stack buffer up to 16 atoms.
func (q *BCQ) SelfJoinFree() bool {
	var buf [16]string
	rels := buf[:0]
	for _, a := range q.Atoms {
		rels = append(rels, a.Rel)
	}
	slices.Sort(rels)
	for i := 1; i < len(rels); i++ {
		if rels[i] == rels[i-1] {
			return false
		}
	}
	return true
}

// Validate checks the well-formedness requirements the paper places on
// (sjf)BCQs: at least one atom, every atom of arity at least one, and each
// relation used with a single arity.
func (q *BCQ) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query has no atoms")
	}
	if q.SelfJoinFree() {
		// Each relation is used once, so only an arity can be wrong.
		for _, a := range q.Atoms {
			if len(a.Vars) == 0 {
				return fmt.Errorf("cq: atom over %s has arity zero", a.Rel)
			}
		}
		return nil
	}
	arity := make(map[string]int)
	for _, a := range q.Atoms {
		if len(a.Vars) == 0 {
			return fmt.Errorf("cq: atom over %s has arity zero", a.Rel)
		}
		if prev, ok := arity[a.Rel]; ok && prev != len(a.Vars) {
			return fmt.Errorf("cq: relation %s used with arities %d and %d", a.Rel, prev, len(a.Vars))
		}
		arity[a.Rel] = len(a.Vars)
	}
	return nil
}

// Clone returns a deep copy of the query.
func (q *BCQ) Clone() *BCQ {
	atoms := make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = Atom{Rel: a.Rel, Vars: append([]string(nil), a.Vars...)}
	}
	return &BCQ{Atoms: atoms}
}

// Eval reports whether inst satisfies the query, i.e. whether there is a
// homomorphism from the query to inst. It uses backtracking over atoms.
func (q *BCQ) Eval(inst *core.Instance) bool {
	asg := make(map[string]string, 8)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(q.Atoms) {
			return true
		}
		a := q.Atoms[i]
		for _, t := range inst.Tuples(a.Rel) {
			if len(t) != len(a.Vars) {
				continue
			}
			var bound []string
			ok := true
			for p, v := range a.Vars {
				if cur, has := asg[v]; has {
					if cur != t[p] {
						ok = false
						break
					}
				} else {
					asg[v] = t[p]
					bound = append(bound, v)
				}
			}
			if ok && rec(i+1) {
				return true
			}
			for _, v := range bound {
				delete(asg, v)
			}
		}
		return false
	}
	return rec(0)
}

// UCQ is a union (disjunction) of Boolean conjunctive queries.
type UCQ struct {
	Disjuncts []*BCQ
}

// String renders the union as "R(x) ∨ S(y, y)".
func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		parts[i] = d.String()
	}
	return strings.Join(parts, " ∨ ")
}

// Eval reports whether some disjunct is satisfied.
func (u *UCQ) Eval(inst *core.Instance) bool {
	for _, d := range u.Disjuncts {
		if d.Eval(inst) {
			return true
		}
	}
	return false
}

// Negation is the negation of a Boolean query, e.g. ¬q for an sjfBCQ q as in
// Theorem 6.3 of the paper.
type Negation struct {
	Inner Query
}

// String renders the negation as "¬(q)".
func (n *Negation) String() string { return "¬(" + n.Inner.String() + ")" }

// Eval reports whether the inner query is falsified.
func (n *Negation) Eval(inst *core.Instance) bool { return !n.Inner.Eval(inst) }

// Tautology is the always-true Boolean query; counting completions
// or valuations under it counts all completions/valuations.
type Tautology struct{}

// String returns "TRUE".
func (Tautology) String() string { return "TRUE" }

// Eval always reports true.
func (Tautology) Eval(*core.Instance) bool { return true }

// Signature returns sig(q), the set of relation names q mentions, walking
// through unions, inequalities and negations. ok is false for queries
// outside the syntactic fragment (Func and unknown implementations), whose
// signature is unknown — they must be treated as touching every relation.
func Signature(q Query) (rels map[string]bool, ok bool) {
	switch t := q.(type) {
	case Tautology:
		return map[string]bool{}, true
	case *BCQ:
		rels = make(map[string]bool, len(t.Atoms))
		for _, a := range t.Atoms {
			rels[a.Rel] = true
		}
		return rels, true
	case *UCQ:
		rels = make(map[string]bool)
		for _, d := range t.Disjuncts {
			for _, a := range d.Atoms {
				rels[a.Rel] = true
			}
		}
		return rels, true
	case *BCQNeq:
		return Signature(t.Base)
	case *Negation:
		return Signature(t.Inner)
	default:
		return nil, false
	}
}

// Func wraps an arbitrary model-checking function as a Query. It is used for
// queries outside the (U)CQ fragment, such as the existential second-order
// query of Theorem 6.4.
type Func struct {
	Name string
	F    func(*core.Instance) bool
}

// String returns the query name.
func (f *Func) String() string { return f.Name }

// Eval runs the wrapped function.
func (f *Func) Eval(inst *core.Instance) bool { return f.F(inst) }
