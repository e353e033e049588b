package sweep

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"

	"github.com/incompletedb/incompletedb/internal/core"
)

// Cursor is a mutable position in an engine's enumerated valuation space:
// the current argument arena, the mixed-radix odometer digits, the cached
// query verdict, and (in ModeCompletions) the incremental completion hash.
// A cursor is single-goroutine state; shards each own one.
type Cursor struct {
	eng   *Engine
	args  []uint32 // live argument arena
	idx   []int    // current digit indices
	radix []int    // per-digit domain sizes (odometer hot path)
	// weight[k] is the index distance between consecutive values of
	// digit k, ∏ radix[k+1:], saturated at math.MaxInt64 (see blockSpan).
	weight []uint64

	verdict      bool
	verdictValid bool
	// depth is the depth of the block Pass skips after a span above 1:
	// the witness depth of the last successful evaluation of a monotone
	// program (the largest ready depth among the facts its match used, 0
	// for TRUE and ground matches), or the depth RepeatSpan matched.
	depth int32

	// Compiled-query evaluation scratch, preallocated per disjunct.
	asg   [][]uint32
	bound [][]bool
	trail []int32
	tp    int

	// Completion hashing state (ModeCompletions only). setGen counts the
	// exact transitions of the distinct fact-value set (see SetGen).
	factHash []Hash128
	mult     *hashMultiset
	sum      Hash128
	setGen   uint64

	// Bitset-compiled membership state (see bitset.go): the engine's plan
	// pinned at cursor creation and the cursor-local bitmap words it
	// indexes, kept current on every step. Nil when the engine compiled
	// no plan, as in every mode but ModeValuations.
	bits    *bitsetPlan
	posBits []uint64
	eqBits  []uint64

	// Scratch buffers.
	strArgs     []string
	sortIdx     []int32
	wordScratch [][]uint64 // per-atom-depth AND-chain scratch (bitset.go)
}

// NewCursor returns a cursor positioned nowhere; call Seek (or Sample)
// before inspecting it.
func (e *Engine) NewCursor() *Cursor {
	c := &Cursor{
		eng:   e,
		args:  append([]uint32(nil), e.tmplArgs...),
		idx:   make([]int, len(e.digits)),
		radix: make([]int, len(e.digits)),
	}
	for k := range e.digits {
		c.radix[k] = len(e.digits[k].dom)
	}
	c.weight = make([]uint64, len(e.digits))
	w := uint64(1)
	for k := len(c.radix) - 1; k >= 0; k-- {
		c.weight[k] = w
		if hi, lo := bits.Mul64(w, uint64(c.radix[k])); hi != 0 || lo > math.MaxInt64 {
			w = math.MaxInt64
		} else {
			w = lo
		}
	}
	maxVars := 0
	for _, d := range e.prog.disjuncts {
		c.asg = append(c.asg, make([]uint32, d.nvars))
		c.bound = append(c.bound, make([]bool, d.nvars))
		if d.nvars > maxVars {
			maxVars = d.nvars
		}
	}
	c.trail = make([]int32, maxVars)
	if e.mode == ModeCompletions {
		c.factHash = make([]Hash128, len(e.factRel))
		c.mult = newHashMultiset(len(e.factRel))
	}
	if e.bits != nil {
		c.bits = e.bits
		c.posBits = make([]uint64, e.bits.posWords)
		c.eqBits = make([]uint64, e.bits.eqWords)
	}
	return c
}

// Seek positions the cursor at index i of the enumerated space,
// 0 ≤ i < Size(), in the index order of core.ValuationSpace restricted to
// the enumerated digits. Cost is O(total slots); Step is incremental.
func (c *Cursor) Seek(i *big.Int) error {
	e := c.eng
	if i.Sign() < 0 || i.Cmp(e.size) >= 0 {
		return fmt.Errorf("sweep: index %v out of range [0, %v)", i, e.size)
	}
	rem := new(big.Int).Set(i)
	radix, dig := new(big.Int), new(big.Int)
	for k := len(e.digits) - 1; k >= 0; k-- {
		radix.SetInt64(int64(len(e.digits[k].dom)))
		rem.QuoRem(rem, radix, dig)
		c.idx[k] = int(dig.Int64())
	}
	c.rebuild()
	return nil
}

// Sample repositions the cursor on a uniformly random valuation of the
// full space, drawing one r.Intn per null in sorted-ID order — the same
// distribution and RNG stream as core.ValuationSpace.Sample. It must only
// be used on engines without pruned nulls (ModeSample or ModeCompletions);
// it panics otherwise, since the pruned digits could not be drawn.
func (c *Cursor) Sample(r *rand.Rand) {
	if c.eng.pruned > 0 {
		panic("sweep: Sample on an engine with pruned nulls")
	}
	for k := range c.eng.digits {
		c.idx[k] = r.Intn(len(c.eng.digits[k].dom))
	}
	c.rebuild()
}

// rebuild re-derives the arena, hashes and verdict from the digit indices.
func (c *Cursor) rebuild() {
	e := c.eng
	copy(c.args, e.tmplArgs)
	for k := range e.digits {
		d := &e.digits[k]
		v := d.dom[c.idx[k]]
		for _, s := range d.slots {
			c.args[e.factOff[s.fact]+s.pos] = v
		}
	}
	if e.mode == ModeCompletions {
		c.mult.reset()
		c.sum = Hash128{}
		c.setGen++ // a reposition is always a fresh completion
		for fi := range e.factRel {
			args := e.factArgs(c.args, int32(fi))
			h := factHash(e.factRel[fi], args)
			c.factHash[fi] = h
			if c.mult.incr(h, e.factRel[fi], args) {
				c.sum = add128(c.sum, h)
				c.setGen++
			}
		}
	}
	if c.bits != nil {
		c.rebuildBits()
	}
	c.verdictValid = false
}

// Step advances the cursor to the next index, patching only the slots of
// the digits that changed. It returns false when the space is exhausted
// (the cursor then stays on the last valuation).
func (c *Cursor) Step() bool { return c.advance(len(c.idx)) }

// MatchSpan evaluates the query at the current valuation and returns the
// verdict with the number of valuations, starting at this one and at most
// limit (≥ 1), that certainly share it. An unsatisfied leaf, and any leaf
// of a negated or opaque program, spans 1. A satisfied leaf of a monotone
// program spans the rest of its witness block: every valuation that
// agrees with it on digits 0..w−1, for w the witness depth, keeps the
// facts the match used, so the same match satisfies it, and in index
// order those valuations run contiguously to the block's end. The span
// saturates at limit, since a block can be wider than an int64.
func (c *Cursor) MatchSpan(limit int64) (bool, int64) {
	if !c.Matches() {
		return false, 1
	}
	if int(c.depth) >= len(c.idx) || !c.eng.prog.monotone() {
		return true, 1
	}
	return true, c.blockSpan(limit)
}

// blockSpan is the span of the block at c.depth from the current
// valuation, saturated at limit: one plus the distance to the block's
// last valuation, where every digit from that depth on sits at its
// largest value.
func (c *Cursor) blockSpan(limit int64) int64 {
	rest, lim := uint64(1), uint64(limit)
	for k := int(c.depth); k < len(c.idx); k++ {
		d := uint64(c.radix[k] - 1 - c.idx[k])
		if d == 0 {
			continue
		}
		hi, lo := bits.Mul64(d, c.weight[k])
		if hi != 0 || lo >= lim {
			return limit
		}
		if rest += lo; rest >= lim {
			return limit
		}
	}
	return int64(rest)
}

// Pass moves the cursor past the span valuations its current leaf
// accounted for and returns false when the space is exhausted. A span of
// 1 is Step; a larger span must be the one MatchSpan or RepeatSpan just
// granted, which ran to the end of a witness block or a repeated prefix
// block, and Pass then lands on the first valuation past the block.
func (c *Cursor) Pass(span int64) bool {
	w := len(c.idx)
	if span > 1 {
		w = int(c.depth)
	}
	return c.advance(w)
}

// advance increments the odometer restricted to digits 0..w−1 and resets
// digits w and beyond to 0: with w = len(idx) this is the next index, and
// with a smaller w it skips every valuation sharing the current digits
// 0..w−1.
func (c *Cursor) advance(w int) bool {
	k := w - 1
	for k >= 0 && c.idx[k]+1 >= c.radix[k] {
		k--
	}
	if k < 0 {
		return false
	}
	c.idx[k]++
	c.applyDigit(k)
	for j := k + 1; j < len(c.idx); j++ {
		if c.idx[j] != 0 {
			c.idx[j] = 0
			c.applyDigit(j)
		}
	}
	return true
}

// applyDigit repatches digit d's slots to its current domain value and
// maintains the incremental state: the per-fact hashes and completion sum
// in ModeCompletions, the membership bitmaps when a bitset plan is
// active, and the verdict cache, which survives the step when the digit
// only touches relations the query never reads.
func (c *Cursor) applyDigit(d int) {
	e := c.eng
	dg := &e.digits[d]
	v := dg.dom[c.idx[d]]
	var upd []slotUpd
	if c.bits != nil {
		upd = c.bits.upd[d]
	}
	switch {
	case e.mode == ModeCompletions:
		vi := c.idx[d]
		for si, s := range dg.slots {
			old := c.factHash[s.fact]
			ai := e.factOff[s.fact] + s.pos
			oldArg := c.args[ai]
			c.args[ai] = v
			var h Hash128
			if dg.slotHash != nil && dg.slotHash[si] != nil {
				h = dg.slotHash[si][vi]
			} else {
				h = factHash(e.factRel[s.fact], e.factArgs(c.args, s.fact))
			}
			c.factHash[s.fact] = h
			rel := e.factRel[s.fact]
			args := e.factArgs(c.args, s.fact)
			if c.mult.decrPatched(old, rel, args, s.pos, oldArg) {
				c.sum = sub128(c.sum, old)
				c.setGen++
			}
			if c.mult.incr(h, rel, args) {
				c.sum = add128(c.sum, h)
				c.setGen++
			}
		}
	case upd != nil:
		// Each slot's fact moves its bits with its patched argument: this
		// is the hottest loop of a counting sweep with a bitset plan.
		for si := range upd {
			u := &upd[si]
			old := c.args[u.arg]
			if old == v {
				continue
			}
			c.args[u.arg] = v
			w := int(u.word)
			if u.posOff >= 0 {
				c.posBits[u.posOff+int(old)*u.posWords+w] &^= u.bit
				c.posBits[u.posOff+int(v)*u.posWords+w] |= u.bit
			}
			for i := range u.eqs {
				eq := &u.eqs[i]
				if v == c.args[eq.otherArg] {
					c.eqBits[eq.off+w] |= u.bit
				} else {
					c.eqBits[eq.off+w] &^= u.bit
				}
			}
		}
	default:
		for _, s := range dg.slots {
			c.args[e.factOff[s.fact]+s.pos] = v
		}
	}
	if dg.dirty {
		c.verdictValid = false
	}
}

// SetGen is the exact generation counter of the completion's distinct
// fact-value set: it is bumped on every transition of the set (a value
// becoming present or absent) and on every reposition, and it is
// otherwise stable. Two consecutive observations with equal SetGen
// prove the completion is unchanged — the multiset underneath verifies
// fact values, not just hashes, so the guarantee is exact even under
// 128-bit hash collisions. Dedup loops use this to skip re-verification
// entirely when a step moved only duplicated facts. Only meaningful in
// ModeCompletions.
func (c *Cursor) SetGen() uint64 { return c.setGen }

// Matches reports whether the current completion satisfies the query,
// re-evaluating only when a relevant relation changed since the last call.
func (c *Cursor) Matches() bool {
	if !c.verdictValid {
		c.evaluate()
	}
	return c.verdict
}

// evaluate recomputes the cached verdict and, on a hit, the witness depth.
func (c *Cursor) evaluate() {
	if c.bits != nil && c.bits.flat != nil {
		c.verdict = c.evalFlat()
	} else {
		c.verdict = c.evalProgram()
	}
	c.verdictValid = true
}

// MatchesUsing is Matches, but reuses inst (when non-nil) for opaque
// queries instead of materializing the completion a second time.
func (c *Cursor) MatchesUsing(inst *core.Instance) bool {
	if inst != nil && c.eng.prog.opaque != nil {
		return c.eng.prog.opaque.Eval(inst)
	}
	return c.Matches()
}

// CompletionHash returns the order-independent 128-bit hash of the current
// completion's fact set. Only meaningful in ModeCompletions.
func (c *Cursor) CompletionHash() Hash128 { return c.sum }

// AppendCanonical appends the exact canonical encoding of the current
// completion to dst and returns it: the distinct facts as (rel, args...)
// interned-ID sequences, sorted. Two cursors of the same engine are on the
// same completion iff their canonical encodings are equal — this is what
// hash-collision buckets compare. The persistent sort order makes the
// insertion sort adaptive: consecutive completions differ in few facts.
func (c *Cursor) AppendCanonical(dst []uint32) []uint32 {
	e := c.eng
	if c.sortIdx == nil {
		c.sortIdx = make([]int32, len(e.factRel))
		for i := range c.sortIdx {
			c.sortIdx[i] = int32(i)
		}
	}
	ids := c.sortIdx
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && c.factLess(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	last := int32(-1)
	for _, fi := range ids {
		if last >= 0 && c.factEqual(last, fi) {
			continue
		}
		dst = append(dst, e.factRel[fi])
		dst = append(dst, e.factArgs(c.args, fi)...)
		last = fi
	}
	return dst
}

func (c *Cursor) factLess(a, b int32) bool {
	e := c.eng
	ra, rb := e.factRel[a], e.factRel[b]
	if ra != rb {
		return ra < rb
	}
	aa, ab := e.factArgs(c.args, a), e.factArgs(c.args, b)
	for i := range aa {
		if aa[i] != ab[i] {
			return aa[i] < ab[i]
		}
	}
	return false
}

func (c *Cursor) factEqual(a, b int32) bool {
	e := c.eng
	if e.factRel[a] != e.factRel[b] {
		return false
	}
	aa, ab := e.factArgs(c.args, a), e.factArgs(c.args, b)
	for i := range aa {
		if aa[i] != ab[i] {
			return false
		}
	}
	return true
}

// Instance materializes the current completion as a core.Instance
// (resolving interned IDs back to strings). Used for opaque queries and
// when enumerated completions must be returned.
func (c *Cursor) Instance() *core.Instance {
	e := c.eng
	inst := core.NewInstance()
	for fi := range e.factRel {
		args := e.factArgs(c.args, int32(fi))
		if cap(c.strArgs) < len(args) {
			c.strArgs = make([]string, len(args))
		}
		s := c.strArgs[:len(args)]
		for i, a := range args {
			s[i] = e.values.Resolve(a)
		}
		inst.Add(e.rels.Resolve(e.factRel[fi]), s...)
	}
	return inst
}

// Valuation materializes the cursor's current digit assignment as a
// core.Valuation over the enumerated nulls (pruned nulls are absent).
func (c *Cursor) Valuation() core.Valuation {
	v := make(core.Valuation, len(c.eng.digits))
	for k := range c.eng.digits {
		d := &c.eng.digits[k]
		v[d.null] = c.eng.values.Resolve(d.dom[c.idx[k]])
	}
	return v
}
