package cq

import "slices"

// This file implements the pattern relation of Definition 3.1: an sjfBCQ q'
// is a pattern of an sjfBCQ q if q' can be obtained from q by any sequence of
// atom deletions, variable-occurrence deletions (keeping at least one
// variable per atom), relation renamings to fresh symbols, variable renamings
// to fresh variables, and reorderings of the variables within an atom.
//
// Equivalently (and this is what IsPatternOf decides): there are an injective
// map μ from the atoms of q' to the atoms of q and an injective map ρ from
// the variables of q' to the variables of q such that, for every atom A' of
// q', the multiset of ρ-images of the variable occurrences of A' is contained
// in the multiset of variable occurrences of μ(A').
//
// The canonical patterns driving the paper's dichotomies (Table 1) are
// provided as package variables. PatternsOf decides all five hard patterns
// of a query in one allocation-light pass, and the structural predicates
// read its flags; both are cross-validated against IsPatternOf in the
// tests.

// Canonical hard patterns of Table 1.
var (
	// PatternRxx is R(x,x): an atom with a repeated variable.
	PatternRxx = MustParseBCQ("R(x, x)")
	// PatternRxSx is R(x) ∧ S(x): two atoms sharing a variable.
	PatternRxSx = MustParseBCQ("R(x) ∧ S(x)")
	// PatternPath is R(x) ∧ S(x,y) ∧ T(y).
	PatternPath = MustParseBCQ("R(x) ∧ S(x, y) ∧ T(y)")
	// PatternRxySxy is R(x,y) ∧ S(x,y): two atoms sharing two variables.
	PatternRxySxy = MustParseBCQ("R(x, y) ∧ S(x, y)")
	// PatternRxy is R(x,y): an atom with two distinct variables.
	PatternRxy = MustParseBCQ("R(x, y)")
	// PatternRx is R(x); it is a pattern of every sjfBCQ.
	PatternRx = MustParseBCQ("R(x)")
)

// IsPatternOf reports whether p is a pattern of q in the sense of
// Definition 3.1. Both queries are expected to be self-join-free; the
// decision is exact for that fragment.
func IsPatternOf(p, q *BCQ) bool {
	if len(p.Atoms) > len(q.Atoms) {
		return false
	}
	usedAtom := make([]bool, len(q.Atoms))
	varMap := make(map[string]string) // p-var -> q-var
	invMap := make(map[string]bool)   // q-vars already used (injectivity)

	// matchVars tries to extend varMap so that the multiset of images of
	// pVars fits inside qCounts. pVars is the list of distinct variables of
	// the p-atom; need[v] is the required multiplicity.
	var matchVars func(pVars []string, idx int, need map[string]int, qCounts map[string]int, cont func() bool) bool
	matchVars = func(pVars []string, idx int, need map[string]int, qCounts map[string]int, cont func() bool) bool {
		if idx == len(pVars) {
			return cont()
		}
		v := pVars[idx]
		if img, ok := varMap[v]; ok {
			if qCounts[img] < need[v] {
				return false
			}
			qCounts[img] -= need[v]
			if matchVars(pVars, idx+1, need, qCounts, cont) {
				return true
			}
			qCounts[img] += need[v]
			return false
		}
		for qv, cnt := range qCounts {
			if invMap[qv] || cnt < need[v] {
				continue
			}
			varMap[v] = qv
			invMap[qv] = true
			qCounts[qv] -= need[v]
			if matchVars(pVars, idx+1, need, qCounts, cont) {
				return true
			}
			qCounts[qv] += need[v]
			delete(varMap, v)
			delete(invMap, qv)
		}
		return false
	}

	var matchAtoms func(i int) bool
	matchAtoms = func(i int) bool {
		if i == len(p.Atoms) {
			return true
		}
		pa := p.Atoms[i]
		need := pa.VarCounts()
		pVars := pa.DistinctVars()
		for j := range q.Atoms {
			if usedAtom[j] {
				continue
			}
			qa := q.Atoms[j]
			if len(pa.Vars) > len(qa.Vars) {
				continue
			}
			usedAtom[j] = true
			qCounts := qa.VarCounts()
			if matchVars(pVars, 0, need, qCounts, func() bool { return matchAtoms(i + 1) }) {
				return true
			}
			usedAtom[j] = false
		}
		return false
	}
	return matchAtoms(0)
}

// Patterns records which of the hard patterns of Table 1 a query has
// (Definition 3.1). A self-join-free query's class in every variant of
// Table 1 depends only on these five flags, never on the facts, so a
// planner computes them once per query (PatternsOf) and hands them to
// every check that needs them.
type Patterns struct {
	// Rxx is R(x,x): some atom repeats a variable.
	Rxx bool
	// RxSx is R(x) ∧ S(x): two atoms share a variable.
	RxSx bool
	// Path is R(x) ∧ S(x,y) ∧ T(y): three distinct atoms A, B, C and
	// distinct variables x, y with x in A and B, and y in B and C.
	Path bool
	// RxySxy is R(x,y) ∧ S(x,y): two atoms share two distinct variables.
	RxySxy bool
	// Rxy is R(x,y): some atom holds two distinct variables.
	Rxy bool
}

// patternScratch is the stack storage of PatternsOf for queries of up to
// len(ids) variable occurrences.
type patternScratch struct {
	ids   [64]int32
	names [64]string
	start [65]int32
	atoms [64]int32
}

// PatternsOf computes the Table 1 pattern flags of q in one pass over its
// atoms; atoms are told apart by position, as the pattern relation
// requires of a self-join-free query. It numbers the variables densely and
// lists, per variable, the atoms that hold it; a query of up to 64
// variable occurrences allocates nothing.
func PatternsOf(q *BCQ) Patterns {
	var p Patterns
	var sc patternScratch
	occ := 0
	for _, a := range q.Atoms {
		occ += len(a.Vars)
	}
	// ids holds every occurrence's variable, numbered by first occurrence.
	ids, names := sc.ids[:0], sc.names[:0]
	var index map[string]int32
	if occ > len(sc.ids) {
		ids, index = make([]int32, 0, occ), make(map[string]int32, occ)
	}
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			var id int32
			if index != nil {
				n, ok := index[v]
				if !ok {
					n = int32(len(index))
					index[v] = n
				}
				id = n
			} else if i := slices.Index(names, v); i >= 0 {
				id = int32(i)
			} else {
				id = int32(len(names))
				names = append(names, v)
			}
			ids = append(ids, id)
		}
	}
	vars := max(len(names), len(index))

	// start[v]..start[v+1] indexes atoms at the atoms holding v, ascending.
	start := scratch(sc.start[:], vars+1)
	clear(start)
	forEachAtom(q, ids, func(_ int, vs []int32) {
		distinct := 0
		for j, v := range vs {
			if slices.Contains(vs[:j], v) {
				p.Rxx = true
				continue
			}
			distinct++
			start[v+1]++
		}
		p.Rxy = p.Rxy || distinct >= 2
	})
	for v := 0; v < vars; v++ {
		p.RxSx = p.RxSx || start[v+1] >= 2
		start[v+1] += start[v]
	}
	atoms := scratch(sc.atoms[:], int(start[vars]))
	forEachAtom(q, ids, func(i int, vs []int32) {
		for j, v := range vs {
			if !slices.Contains(vs[:j], v) {
				atoms[start[v]] = int32(i)
				start[v]++
			}
		}
	})
	copy(start[1:], start[:vars])
	start[0] = 0

	// Two distinct variables x, y of one atom B: another atom holding both
	// is R(x,y) ∧ S(x,y); two distinct other atoms, one holding x and one
	// holding y, make the path.
	forEachAtom(q, ids, func(b int, vs []int32) {
		for j, x := range vs {
			if slices.Contains(vs[:j], x) {
				continue
			}
			for k := j + 1; k < len(vs); k++ {
				y := vs[k]
				if y == x || slices.Contains(vs[:k], y) {
					continue
				}
				xs, ys := atoms[start[x]:start[x+1]], atoms[start[y]:start[y+1]]
				for _, c := range xs {
					if c != int32(b) && slices.Contains(ys, c) {
						p.RxySxy = true
					}
				}
				// xs and ys both hold b: the path needs another atom in
				// each, and two different ones unless either has more.
				if len(xs) >= 2 && len(ys) >= 2 && (len(xs) > 2 || len(ys) > 2 || other(xs, b) != other(ys, b)) {
					p.Path = true
				}
			}
		}
	})
	return p
}

// forEachAtom calls fn with each atom's position and the ids of its
// variable occurrences.
func forEachAtom(q *BCQ, ids []int32, fn func(i int, vs []int32)) {
	off := 0
	for i, a := range q.Atoms {
		fn(i, ids[off:off+len(a.Vars)])
		off += len(a.Vars)
	}
}

// other returns the member of a two-atom list that is not b.
func other(atoms []int32, b int) int32 {
	if atoms[0] == int32(b) {
		return atoms[1]
	}
	return atoms[0]
}

// scratch returns buf[:n] when buf can hold n items, and a new slice
// otherwise.
func scratch(buf []int32, n int) []int32 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int32, n)
}

// HasRepeatedVarAtom reports whether q has R(x,x) as a pattern: some atom
// contains a repeated variable.
func HasRepeatedVarAtom(q *BCQ) bool { return PatternsOf(q).Rxx }

// HasSharedVarAtoms reports whether q has R(x) ∧ S(x) as a pattern: two
// distinct atoms share a variable.
func HasSharedVarAtoms(q *BCQ) bool { return PatternsOf(q).RxSx }

// HasPathPattern reports whether q has R(x) ∧ S(x,y) ∧ T(y) as a pattern:
// three pairwise distinct atoms A, B, C and distinct variables x, y with
// x ∈ vars(A) ∩ vars(B) and y ∈ vars(B) ∩ vars(C).
func HasPathPattern(q *BCQ) bool { return PatternsOf(q).Path }

// HasDoublySharedPair reports whether q has R(x,y) ∧ S(x,y) as a pattern:
// two distinct atoms share two distinct variables.
func HasDoublySharedPair(q *BCQ) bool { return PatternsOf(q).RxySxy }

// HasBinaryPattern reports whether q has R(x,y) as a pattern: some atom
// contains two distinct variables.
func HasBinaryPattern(q *BCQ) bool { return PatternsOf(q).Rxy }

// AllVariablesOccurOnce reports whether every variable of q has exactly one
// occurrence, which by Theorem 3.6 characterizes (for sjfBCQs) the absence of
// both R(x,x) and R(x) ∧ S(x) as patterns.
func AllVariablesOccurOnce(q *BCQ) bool {
	p := PatternsOf(q)
	return !p.Rxx && !p.RxSx
}

// AllAtomsUnary reports whether every atom of q has arity one, which for
// sjfBCQs characterizes the absence of both R(x,x) and R(x,y) as patterns
// (Theorem 4.6's tractable side).
func AllAtomsUnary(q *BCQ) bool {
	for _, a := range q.Atoms {
		if len(a.Vars) != 1 {
			return false
		}
	}
	return true
}
