package sweep

import (
	"github.com/incompletedb/incompletedb/internal/cq"
)

// program is a query compiled against an engine's interned schema. The
// syntactic fragment — TRUE, BCQ, UCQ, BCQ+inequalities, and negations of
// those — evaluates directly over the arena; anything else (cq.Func and
// unknown Query implementations) stays opaque and is evaluated on a
// materialized core.Instance.
type program struct {
	opaque     cq.Query // non-nil → outside the compiled fragment
	negate     bool
	alwaysTrue bool // TRUE (modulo negate); disjuncts is then empty
	disjuncts  []compiledBCQ
}

// monotone reports whether satisfaction survives adding facts: a
// compiled, un-negated program. Only monotone programs may skip witness
// blocks (see Cursor.MatchSpan).
func (p *program) monotone() bool { return p.opaque == nil && !p.negate }

// compiledBCQ is one disjunct: atoms over interned relation IDs with
// variables renumbered to dense slots, plus inequality pairs.
type compiledBCQ struct {
	// ok is false when the disjunct is statically unsatisfiable against
	// the database schema: an atom over a relation the database does not
	// have, or with the wrong arity, can never match any tuple.
	ok    bool
	atoms []compiledAtom
	nvars int
	diffs [][2]int32
}

type compiledAtom struct {
	rel  uint32
	vars []int32 // variable slot per argument position
}

// compileQuery lowers q onto e's interned schema.
func compileQuery(e *Engine, q cq.Query) program {
	switch t := q.(type) {
	case cq.Tautology:
		return program{alwaysTrue: true}
	case *cq.BCQ:
		return program{disjuncts: []compiledBCQ{compileBCQ(e, t, nil)}}
	case *cq.UCQ:
		p := program{disjuncts: make([]compiledBCQ, 0, len(t.Disjuncts))}
		for _, d := range t.Disjuncts {
			p.disjuncts = append(p.disjuncts, compileBCQ(e, d, nil))
		}
		return p
	case *cq.BCQNeq:
		return program{disjuncts: []compiledBCQ{compileBCQ(e, t.Base, t.Diffs)}}
	case *cq.Negation:
		inner := compileQuery(e, t.Inner)
		if inner.opaque != nil {
			return program{opaque: q}
		}
		inner.negate = !inner.negate
		return inner
	default:
		return program{opaque: q}
	}
}

func compileBCQ(e *Engine, b *cq.BCQ, diffs [][2]string) compiledBCQ {
	c := compiledBCQ{ok: true}
	varID := make(map[string]int32)
	slotOf := func(v string) int32 {
		id, ok := varID[v]
		if !ok {
			id = int32(len(varID))
			varID[v] = id
		}
		return id
	}
	for _, a := range b.Atoms {
		rid, exists := e.rels.Lookup(a.Rel)
		if !exists || int(e.relArity[rid]) != len(a.Vars) {
			// No tuple of the database can ever match this atom, so the
			// whole conjunction is false on every completion. A missing
			// relation gets a sentinel ID; the disjunct is never
			// evaluated, so the ID is only seen by the relevance scan.
			c.ok = false
			if !exists {
				rid = ^uint32(0)
			}
		}
		ca := compiledAtom{rel: rid, vars: make([]int32, len(a.Vars))}
		for p, v := range a.Vars {
			ca.vars[p] = slotOf(v)
		}
		c.atoms = append(c.atoms, ca)
	}
	for _, d := range diffs {
		x, okX := varID[d[0]]
		y, okY := varID[d[1]]
		// A diff variable that occurs in no atom is never bound, so the
		// inequality can never fail — drop it, matching cq.BCQNeq.Eval.
		if okX && okY {
			c.diffs = append(c.diffs, [2]int32{x, y})
		}
	}
	c.nvars = len(varID)
	return c
}

// evalProgram computes the current verdict over the cursor's arena.
func (c *Cursor) evalProgram() bool {
	p := &c.eng.prog
	if p.opaque != nil {
		return p.opaque.Eval(c.Instance())
	}
	res := p.alwaysTrue
	if res {
		c.depth = 0 // TRUE reads no fact
	} else {
		for i := range p.disjuncts {
			if c.evalDisjunct(i) {
				res = true
				break
			}
		}
	}
	if p.negate {
		return !res
	}
	return res
}

// evalDisjunct is the homomorphism check of one compiled BCQ: backtracking
// over atoms with array-indexed variable assignment and an explicit
// binding trail — allocation-free. A successful match leaves its witness
// depth in c.depth: the innermost level sets it, and every level folds in
// its fact's ready depth as the success unwinds, so failing candidates
// pay nothing for it.
func (c *Cursor) evalDisjunct(di int) bool {
	b := &c.eng.prog.disjuncts[di]
	if !b.ok {
		return false
	}
	asg, bound := c.asg[di], c.bound[di]
	c.tp = 0
	var res bool
	if c.bits != nil {
		res = c.evalAtomsBits(b, c.bits.atoms[di], asg, bound, 0)
	} else {
		res = c.evalAtoms(b, asg, bound, 0)
	}
	// A successful match returns early with its bindings still on the
	// trail; unwind them so the next evaluation starts clean.
	for c.tp > 0 {
		c.tp--
		bound[c.trail[c.tp]] = false
	}
	return res
}

func (c *Cursor) evalAtoms(b *compiledBCQ, asg []uint32, bound []bool, i int) bool {
	if i == len(b.atoms) {
		return c.matched(b, asg, bound)
	}
	a := &b.atoms[i]
	e := c.eng
	for _, fi := range e.relFacts[a.rel] {
		args := e.factArgs(c.args, fi)
		tp0 := c.tp
		ok := true
		for p, v := range a.vars {
			if bound[v] {
				if asg[v] != args[p] {
					ok = false
					break
				}
			} else {
				bound[v] = true
				asg[v] = args[p]
				c.trail[c.tp] = v
				c.tp++
			}
		}
		if ok && diffsOK(b, asg, bound) && c.evalAtoms(b, asg, bound, i+1) {
			c.noteWitness(fi)
			return true
		}
		for c.tp > tp0 {
			c.tp--
			bound[c.trail[c.tp]] = false
		}
	}
	return false
}

// matched is the innermost level of a match: every atom is bound, so the
// match holds when the inequalities do, and its witness depth starts at 0.
func (c *Cursor) matched(b *compiledBCQ, asg []uint32, bound []bool) bool {
	if !diffsOK(b, asg, bound) {
		return false
	}
	c.depth = 0
	return true
}

// noteWitness folds fact fi's ready depth into the witness depth of the
// match being unwound.
func (c *Cursor) noteWitness(fi int32) {
	if r := c.eng.ready[fi]; r > c.depth {
		c.depth = r
	}
}

// diffsOK checks every inequality whose two variables are both bound.
func diffsOK(b *compiledBCQ, asg []uint32, bound []bool) bool {
	for _, d := range b.diffs {
		if bound[d[0]] && bound[d[1]] && asg[d[0]] == asg[d[1]] {
			return false
		}
	}
	return true
}
