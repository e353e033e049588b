package sweep

import (
	"fmt"
	"strings"
)

// Cost-driven atom ordering: the compiler greedily reorders each
// disjunct's atoms to maximize early bound-variable checks. An atom
// whose argument positions are already bound (or repeat a variable the
// atom itself introduced earlier) turns into bitmap ANDs — or scalar
// equality checks — that prune candidates before any fresh variable is
// bound, so the backtracking tree stays narrow. The greedy rule is
// most-bound-first, tie-broken on smaller relation cardinality, then on
// syntactic position (stable).
//
// Reordering after compileBCQ is semantics-preserving: variable slots
// were assigned by first occurrence over the syntactic order and are
// never renumbered, homomorphism existence does not depend on the order
// atoms are matched in, and the inequality pairs reference slots, not
// positions. Both the scalar evaluator and the bitset compiler consume
// the reordered atom list, so the two paths always agree on the order.

// orderAtoms reorders every disjunct of the compiled program (unless
// syntactic pins the query's own order) and records the result in
// orderNote.
func (e *Engine) orderAtoms(syntactic bool) {
	e.orderNote = "syntactic"
	if syntactic || e.prog.opaque != nil {
		return
	}
	var parts []string
	for di := range e.prog.disjuncts {
		d := &e.prog.disjuncts[di]
		ord := e.orderDisjunct(d)
		if ord == nil {
			continue
		}
		if len(e.prog.disjuncts) > 1 {
			parts = append(parts, fmt.Sprintf("d%d:%v", di, ord))
		} else {
			parts = append(parts, fmt.Sprintf("%v", ord))
		}
	}
	if len(parts) > 0 {
		e.orderNote = "cost " + strings.Join(parts, " ")
	}
}

// orderDisjunct greedily reorders d's atoms in place and returns the
// chosen permutation (order[i] = syntactic index of the atom evaluated
// i-th), or nil when the order is unchanged or the disjunct is not
// orderable (statically unsatisfiable disjuncts are never evaluated and
// may carry sentinel relation IDs).
func (e *Engine) orderDisjunct(d *compiledBCQ) []int {
	n := len(d.atoms)
	if !d.ok || n < 2 {
		return nil
	}
	bound := make([]bool, d.nvars)
	taken := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestScore, bestCard := -1, -1, 0
		for i := 0; i < n; i++ {
			if taken[i] {
				continue
			}
			a := &d.atoms[i]
			score := 0
			for p, v := range a.vars {
				if bound[v] {
					score++
					continue
				}
				for q := 0; q < p; q++ {
					if a.vars[q] == v {
						score++
						break
					}
				}
			}
			card := len(e.relFacts[a.rel])
			if score > bestScore || (score == bestScore && card < bestCard) {
				best, bestScore, bestCard = i, score, card
			}
		}
		order = append(order, best)
		taken[best] = true
		for _, v := range d.atoms[best].vars {
			bound[v] = true
		}
	}
	identity := true
	for i, o := range order {
		if i != o {
			identity = false
			break
		}
	}
	if identity {
		return nil
	}
	atoms := make([]compiledAtom, n)
	for i, o := range order {
		atoms[i] = d.atoms[o]
	}
	d.atoms = atoms
	return order
}

// AtomOrder describes the atom evaluation order the engine compiled:
// "syntactic" when every disjunct kept the query's own order, otherwise
// the cost-chosen permutation(s), e.g. "cost [1 0]".
func (e *Engine) AtomOrder() string { return e.orderNote }
