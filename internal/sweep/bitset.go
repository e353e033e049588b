package sweep

import "math/bits"

// Bitset-compiled membership: the engine lowers single-relation atom
// matching onto intersections of per-(relation, position, value) bitmaps
// over per-relation fact ordinals, so the candidate scan of evalAtoms
// becomes ANDs over []uint64 words instead of per-tuple backtracking
// probes.
//
// With a fixed atom order the set of variables bound on entry to atom i
// is statically known (the variables of atoms 0..i-1), so each argument
// position of each atom is classified at compile time:
//
//   - a position holding an already-bound variable becomes a check: AND
//     the (relation, position, value=asg[v]) bitmap;
//   - the second and later positions of a variable first introduced by
//     this atom become equalities: AND the per-(relation, p1, p2) bitmap
//     of facts whose two arguments currently agree;
//   - the first position of each new variable is a bind: read the
//     argument off each surviving candidate.
//
// The bitmaps describe the cursor's current completion, so they are
// cursor-local state, maintained incrementally by applyDigit: patching
// one null slot moves at most one bit per affected bitmap. The
// engine-side plan (block offsets, per-atom access plans, per-slot
// update descriptors) is built once, at compile time.

// bitsetWordBudget caps the bitmap words one cursor allocates (position
// plus equality blocks, 8 MiB of uint64s). Beyond it the plan is dropped
// and evaluation stays scalar.
const bitsetWordBudget = 1 << 20

// posBlock is the bitmap family of one (relation, position): for every
// interned value v, the set of facts whose argument at pos currently
// equals v. Value v's words live at posBits[off+int(v)*words:].
type posBlock struct {
	rel   uint32
	pos   int32
	off   int
	words int
}

// eqBlock is the bitmap of one intra-atom equality (relation, p1, p2):
// the set of facts whose arguments at p1 and p2 currently agree.
type eqBlock struct {
	rel    uint32
	p1, p2 int32
	off    int
	words  int
}

// posCheck ANDs the bitmap of (block at off, value asg[vr]).
type posCheck struct {
	off int
	vr  int32
}

// bindPos reads variable vr off a candidate's argument position pos.
type bindPos struct {
	pos int32
	vr  int32
}

// atomBits is the compiled bitmap access plan of one atom.
type atomBits struct {
	// use reports that the atom has at least one check or equality mask.
	// Without one the intersection would be all-ones over the relation's
	// facts and the plain scan is cheaper; all positions are then binds.
	use bool
	// existOnly reports that nothing downstream consumes the atom's
	// bindings — it is the disjunct's last atom and the disjunct has no
	// inequalities — so any surviving candidate proves the match and the
	// bind/recurse tail is skipped.
	existOnly bool
	words     int
	checks    []posCheck
	eqOffs    []int
	binds     []bindPos
}

// eqUpd is one equality bitmap a slot feeds: after a patch the slot's
// fact is re-tested against its other argument.
type eqUpd struct {
	off      int
	otherArg int32
}

// slotUpd is the per-slot bitmap maintenance descriptor: where the
// slot's fact's bit lives and which bitmaps its argument position feeds.
type slotUpd struct {
	arg      int32  // arena index of the patched argument
	word     int32  // ord >> 6 within each of the fact's bitmaps
	bit      uint64 // 1 << (ord & 63)
	posOff   int    // posBlock base, -1 when the position feeds none
	posWords int
	eqs      []eqUpd
}

// bitsetPlan is the engine-side compilation product. The []uint64 arrays
// it indexes are owned by each cursor.
type bitsetPlan struct {
	posWords  int
	eqWords   int
	posBlocks []posBlock
	eqBlocks  []eqBlock
	atoms     [][]atomBits // per (disjunct, atom)
	upd       [][]slotUpd  // per digit, aligned with digit.slots

	// flat is the fully-flattened verdict of a single-disjunct,
	// single-atom program whose match is pure bitmap intersection (only
	// equality masks, nothing downstream of the atom): the verdict is
	// "some word of the AND over these eq offsets is non-zero", xor
	// flatNeg. Nil when the program doesn't have that shape.
	flat      []int
	flatWords int
	flatNeg   bool
	// flatReady is the ready depth of each fact of the flat atom's
	// relation, by ordinal: a hit's witness depth is one load.
	flatReady []int32
}

type posKey struct {
	rel uint32
	pos int32
}

type eqKey struct {
	rel    uint32
	p1, p2 int32
}

// buildBitsets compiles the engine's bitset plan, leaving it nil when no
// atom carries a mask or when the word budget is exceeded. Only #Val
// engines get one: a #Comp sweep matches the query about once per
// distinct completion, so keeping bitmaps current on every step would
// cost more than the scalar matches it saves.
func (e *Engine) buildBitsets() {
	if e.mode != ModeValuations || e.prog.opaque != nil || len(e.prog.disjuncts) == 0 {
		return
	}
	bp := &bitsetPlan{atoms: make([][]atomBits, len(e.prog.disjuncts))}
	posIdx := make(map[posKey]int)
	eqIdx := make(map[eqKey]int)
	use := false
	for di := range e.prog.disjuncts {
		d := &e.prog.disjuncts[di]
		ab := make([]atomBits, len(d.atoms))
		bp.atoms[di] = ab
		if !d.ok {
			continue
		}
		bound := make([]bool, d.nvars)
		first := make([]int32, d.nvars)
		for ai := range d.atoms {
			a := &d.atoms[ai]
			ca := &ab[ai]
			ca.words = (len(e.relFacts[a.rel]) + 63) / 64
			for i := range first {
				first[i] = -1
			}
			for p, vr := range a.vars {
				switch {
				case bound[vr]:
					k := posKey{a.rel, int32(p)}
					bi, ok := posIdx[k]
					if !ok {
						bi = len(bp.posBlocks)
						posIdx[k] = bi
						bp.posBlocks = append(bp.posBlocks, posBlock{rel: a.rel, pos: int32(p), words: ca.words})
					}
					// off holds the block index until the layout pass.
					ca.checks = append(ca.checks, posCheck{off: bi, vr: vr})
				case first[vr] >= 0:
					k := eqKey{a.rel, first[vr], int32(p)}
					bi, ok := eqIdx[k]
					if !ok {
						bi = len(bp.eqBlocks)
						eqIdx[k] = bi
						bp.eqBlocks = append(bp.eqBlocks, eqBlock{rel: a.rel, p1: first[vr], p2: int32(p), words: ca.words})
					}
					ca.eqOffs = append(ca.eqOffs, bi)
				default:
					first[vr] = int32(p)
					ca.binds = append(ca.binds, bindPos{pos: int32(p), vr: vr})
				}
			}
			ca.use = len(ca.checks)+len(ca.eqOffs) > 0
			ca.existOnly = ai == len(d.atoms)-1 && len(d.diffs) == 0
			if ca.use {
				use = true
			}
			for _, vr := range a.vars {
				bound[vr] = true
			}
		}
	}
	if !use {
		return
	}
	// Lay the blocks out under the word budget.
	nvals := e.values.Len()
	off := 0
	for i := range bp.posBlocks {
		bp.posBlocks[i].off = off
		off += nvals * bp.posBlocks[i].words
		if off > bitsetWordBudget {
			return
		}
	}
	bp.posWords = off
	off = 0
	for i := range bp.eqBlocks {
		bp.eqBlocks[i].off = off
		off += bp.eqBlocks[i].words
	}
	bp.eqWords = off
	if bp.posWords+bp.eqWords > bitsetWordBudget {
		return
	}
	// Resolve block indices to word offsets in the per-atom plans.
	for _, ab := range bp.atoms {
		for i := range ab {
			for j := range ab[i].checks {
				ab[i].checks[j].off = bp.posBlocks[ab[i].checks[j].off].off
			}
			for j := range ab[i].eqOffs {
				ab[i].eqOffs[j] = bp.eqBlocks[ab[i].eqOffs[j]].off
			}
		}
	}
	// Fact ordinals are positions in relFacts.
	ord := make([]int32, len(e.factRel))
	for i := range ord {
		ord[i] = -1
	}
	for _, rf := range e.relFacts {
		for j, fi := range rf {
			ord[fi] = int32(j)
		}
	}
	bp.upd = make([][]slotUpd, len(e.digits))
	for k := range e.digits {
		slots := e.digits[k].slots
		if len(slots) == 0 {
			continue
		}
		us := make([]slotUpd, len(slots))
		for j, s := range slots {
			o := ord[s.fact]
			u := slotUpd{
				arg:    e.factOff[s.fact] + s.pos,
				word:   o >> 6,
				bit:    1 << uint(o&63),
				posOff: -1,
			}
			rid := e.factRel[s.fact]
			if bi, ok := posIdx[posKey{rid, s.pos}]; ok {
				u.posOff = bp.posBlocks[bi].off
				u.posWords = bp.posBlocks[bi].words
			}
			for bi := range bp.eqBlocks {
				eb := &bp.eqBlocks[bi]
				if eb.rel != rid {
					continue
				}
				other := int32(-1)
				if eb.p1 == s.pos {
					other = eb.p2
				} else if eb.p2 == s.pos {
					other = eb.p1
				}
				if other >= 0 {
					u.eqs = append(u.eqs, eqUpd{off: eb.off, otherArg: e.factOff[s.fact] + other})
				}
			}
			us[j] = u
		}
		bp.upd[k] = us
	}
	if len(e.prog.disjuncts) == 1 {
		if d0 := bp.atoms[0]; len(d0) == 1 && d0[0].use && d0[0].existOnly && len(d0[0].checks) == 0 {
			bp.flat = d0[0].eqOffs
			bp.flatWords = d0[0].words
			bp.flatNeg = e.prog.negate
			rf := e.relFacts[e.prog.disjuncts[0].atoms[0].rel]
			bp.flatReady = make([]int32, len(rf))
			for o, fi := range rf {
				bp.flatReady[o] = e.ready[fi]
			}
		}
	}
	e.bits = bp
}

// evalFlat is the flattened verdict (see bitsetPlan.flat): an unrolled
// AND-chain over the equality bitmaps, materialized into the cursor's
// scratch words only when the chain is longer than two. A hit records the
// witness depth of the chain's first surviving fact.
func (c *Cursor) evalFlat() bool {
	bp := c.bits
	w := bp.flatWords
	if w == 1 {
		// Single-word bitmaps: the scalar chain beats a helper call.
		m := c.eqBits[bp.flat[0]]
		for _, off := range bp.flat[1:] {
			m &= c.eqBits[off]
		}
		if m != 0 {
			c.depth = bp.flatReady[bits.TrailingZeros64(m)]
			return !bp.flatNeg
		}
		return bp.flatNeg
	}
	first := c.eqBits[bp.flat[0] : bp.flat[0]+w]
	hit := false
	switch len(bp.flat) {
	case 1:
		if hit = anyNonzero(first); hit {
			c.depth = bp.flatReady[firstAnd(first, first)]
		}
	case 2:
		second := c.eqBits[bp.flat[1] : bp.flat[1]+w]
		if hit = andAnyNonzero(first, second); hit {
			c.depth = bp.flatReady[firstAnd(first, second)]
		}
	default:
		s := c.scratchWords(0, w)
		copyAnd(s, first, c.eqBits[bp.flat[1]:bp.flat[1]+w])
		for _, off := range bp.flat[2:] {
			andInto(s, c.eqBits[off:off+w])
		}
		if hit = anyNonzero(s); hit {
			c.depth = bp.flatReady[firstAnd(s, s)]
		}
	}
	if hit {
		return !bp.flatNeg
	}
	return bp.flatNeg
}

// scratchWords returns a cursor-local scratch buffer of n bitmap words
// for atom depth d. Depth-indexed buffers keep an outer atom's
// materialized intersection intact while deeper atoms of the recursion
// compute their own.
func (c *Cursor) scratchWords(d, n int) []uint64 {
	for len(c.wordScratch) <= d {
		c.wordScratch = append(c.wordScratch, nil)
	}
	if cap(c.wordScratch[d]) < n {
		c.wordScratch[d] = make([]uint64, n)
	}
	return c.wordScratch[d][:n]
}

// Bitset reports whether the engine compiled a bitset membership plan
// (cursor evaluation then runs word-parallel).
func (e *Engine) Bitset() bool { return e.bits != nil }

// rebuildBits repopulates the cursor's bitmaps from its current arena.
func (c *Cursor) rebuildBits() {
	bp := c.bits
	clear(c.posBits)
	clear(c.eqBits)
	e := c.eng
	for bi := range bp.posBlocks {
		blk := &bp.posBlocks[bi]
		for o, fi := range e.relFacts[blk.rel] {
			v := c.args[e.factOff[fi]+blk.pos]
			c.posBits[blk.off+int(v)*blk.words+(o>>6)] |= 1 << uint(o&63)
		}
	}
	for bi := range bp.eqBlocks {
		blk := &bp.eqBlocks[bi]
		for o, fi := range e.relFacts[blk.rel] {
			off := e.factOff[fi]
			if c.args[off+blk.p1] == c.args[off+blk.p2] {
				c.eqBits[blk.off+(o>>6)] |= 1 << uint(o&63)
			}
		}
	}
}

// evalAtomsBits is evalAtoms with the candidate scan of masked atoms
// replaced by the word-AND over the compiled bitmaps. Unmasked atoms
// (all positions bind fresh, distinct variables) scan the relation's
// facts like the scalar path. Witness depths are recorded as in
// evalAtoms; an existence-only atom's witness is its first surviving
// candidate, and an unmasked existence-only atom reads no argument, so
// any fact of its relation matches on every valuation and adds nothing.
func (c *Cursor) evalAtomsBits(b *compiledBCQ, abs []atomBits, asg []uint32, bound []bool, i int) bool {
	if i == len(b.atoms) {
		return c.matched(b, asg, bound)
	}
	e := c.eng
	ab := &abs[i]
	rf := e.relFacts[b.atoms[i].rel]
	if !ab.use {
		if ab.existOnly {
			if len(rf) == 0 {
				return false
			}
			c.depth = 0
			return true
		}
		for _, fi := range rf {
			if c.bindCandidate(b, abs, asg, bound, i, fi) {
				return true
			}
		}
		return false
	}
	if ab.words >= 4 {
		return c.evalAtomWide(b, abs, asg, bound, i, rf)
	}
	for w := 0; w < ab.words; w++ {
		m := ^uint64(0)
		for _, ck := range ab.checks {
			m &= c.posBits[ck.off+int(asg[ck.vr])*ab.words+w]
			if m == 0 {
				break
			}
		}
		if m == 0 {
			continue
		}
		for _, off := range ab.eqOffs {
			m &= c.eqBits[off+w]
			if m == 0 {
				break
			}
		}
		if ab.existOnly && m != 0 {
			c.depth = e.ready[rf[w<<6|bits.TrailingZeros64(m)]]
			return true
		}
		for m != 0 {
			fi := rf[w<<6|bits.TrailingZeros64(m)]
			m &= m - 1
			if c.bindCandidate(b, abs, asg, bound, i, fi) {
				return true
			}
		}
	}
	return false
}

// evalAtomWide is the wide-relation arm of evalAtomsBits: at four or
// more bitmap words the unrolled AND-chain over whole blocks (see
// words.go) beats the word-major loop with its per-word early exits. The
// intersection lands in the cursor's scratch words, existence-only atoms
// short-circuit through andAnyNonzero without materializing it.
func (c *Cursor) evalAtomWide(b *compiledBCQ, abs []atomBits, asg []uint32, bound []bool, i int, rf []int32) bool {
	ab := &abs[i]
	w := ab.words
	// Gather the chain: position checks first, then equality masks.
	var first []uint64
	if len(ab.checks) > 0 {
		ck := ab.checks[0]
		first = c.posBits[ck.off+int(asg[ck.vr])*w:][:w]
	} else {
		first = c.eqBits[ab.eqOffs[0] : ab.eqOffs[0]+w]
	}
	rest := len(ab.checks) + len(ab.eqOffs) - 1
	if rest == 0 {
		if ab.existOnly {
			return c.existWitness(rf, first, first, anyNonzero(first))
		}
		return c.scanCandidates(b, abs, asg, bound, i, rf, first)
	}
	if rest == 1 && ab.existOnly {
		var second []uint64
		if len(ab.checks) > 1 {
			ck := ab.checks[1]
			second = c.posBits[ck.off+int(asg[ck.vr])*w:][:w]
		} else {
			second = c.eqBits[ab.eqOffs[len(ab.eqOffs)-1] : ab.eqOffs[len(ab.eqOffs)-1]+w]
		}
		return c.existWitness(rf, first, second, andAnyNonzero(first, second))
	}
	s := c.scratchWords(i, w)
	copy(s, first)
	for _, ck := range ab.checks[min(1, len(ab.checks)):] {
		andInto(s, c.posBits[ck.off+int(asg[ck.vr])*w:][:w])
	}
	eqs := ab.eqOffs
	if len(ab.checks) == 0 {
		eqs = eqs[1:]
	}
	for _, off := range eqs {
		andInto(s, c.eqBits[off:off+w])
	}
	if ab.existOnly {
		return c.existWitness(rf, s, s, anyNonzero(s))
	}
	return c.scanCandidates(b, abs, asg, bound, i, rf, s)
}

// existWitness passes through the verdict hit of an existence-only wide
// atom whose candidates are a & b, recording on a hit the witness depth of
// the first candidate.
func (c *Cursor) existWitness(rf []int32, a, b []uint64, hit bool) bool {
	if hit {
		c.depth = c.eng.ready[rf[firstAnd(a, b)]]
	}
	return hit
}

// scanCandidates binds and recurses over every set bit of mask.
func (c *Cursor) scanCandidates(b *compiledBCQ, abs []atomBits, asg []uint32, bound []bool, i int, rf []int32, mask []uint64) bool {
	for w, m := range mask {
		for m != 0 {
			fi := rf[w<<6|bits.TrailingZeros64(m)]
			m &= m - 1
			if c.bindCandidate(b, abs, asg, bound, i, fi) {
				return true
			}
		}
	}
	return false
}

// bindCandidate binds atom i's fresh variables off candidate fact fi and
// recurses — checks and equalities were already enforced by the masks (or
// are absent). Bindings are unwound on failure.
func (c *Cursor) bindCandidate(b *compiledBCQ, abs []atomBits, asg []uint32, bound []bool, i int, fi int32) bool {
	args := c.eng.factArgs(c.args, fi)
	tp0 := c.tp
	for _, bd := range abs[i].binds {
		bound[bd.vr] = true
		asg[bd.vr] = args[bd.pos]
		c.trail[c.tp] = bd.vr
		c.tp++
	}
	if diffsOK(b, asg, bound) && c.evalAtomsBits(b, abs, asg, bound, i+1) {
		c.noteWitness(fi)
		return true
	}
	for c.tp > tp0 {
		c.tp--
		bound[c.trail[c.tp]] = false
	}
	return false
}
