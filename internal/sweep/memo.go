package sweep

import (
	"slices"
	"sync"
	"unsafe"
)

// Prefix-state memo: the completion sweep's counterpart of the witness
// block skip. A block at depth k is the run of valuations that share
// digits 0..k−1 with the current one, contiguous in index order. Its
// completions depend only on its prefix state at depth k:
//
//   - the distinct values of the non-ground facts of ready depth ≤ k,
//     which the prefix fixes;
//   - the values of the digits below k that still occur in a fact of
//     larger ready depth (the live digits).
//
// Every block at depth k ranges over the same suffixes, so two blocks
// with equal states hold the same set of completions. A shard that lands
// on the first valuation of a block whose state it already entered can
// therefore only repeat completions it has recorded, and it skips the
// block whole. The rule reasons about completions, not verdicts, so it
// holds for every query, negated and opaque ones included.

// memoGeomBudget caps the live-digit lists of an engine's memo depths,
// in entries (256 KiB at the cap); depths past it are not memoized.
const memoGeomBudget = 1 << 16

// memoBudget caps one PrefixMemo's table, entries and key arena, in
// bytes. Past it the memo keeps probing but records no new state.
const memoBudget = 1 << 20

// memoTrial is how many probes a memo depth gets for free: a depth whose
// states never repeat, like every depth of R(?i, c_i), costs a few dozen
// probes and no more.
const memoTrial = 32

// memoProbeCost is what a probe costs, in leaves visited: syncing and
// hashing the state, looking it up and, on a miss, recording its key
// (measured at about two on random #Comp shapes). Past its free probes a
// depth stays probed only while the valuations its hits skipped pay for
// the rest at this rate. Deep blocks are small, so a depth near the last
// digit must hit often.
const memoProbeCost = 2

// memoKeepSlots is the largest table, of states or of prefix facts, a
// released memo may take back to the pool: a bigger memo served a sweep
// long enough to amortize its growth, and is left to the collector
// rather than pinned.
const memoKeepSlots = 1 << 10

// memoPool recycles the memos of finished sweeps (see Release). A
// service runs many small #Comp sweeps, and growing a fresh table,
// entry list and key arena for every shard of each would add a fifth to
// the bytes such a request allocates.
var memoPool sync.Pool

// memoDepth is one depth a PrefixMemo probes: a depth at which some
// digit stops being live, so that distinct prefixes can share a state,
// and whose blocks hold more than one valuation.
type memoDepth struct {
	depth int32
	// live lists the digits below depth that occur in a fact of larger
	// ready depth, leaving out digits of radix 1, whose value never
	// changes.
	live []int32
}

// buildPrefixes computes the prefix-state geometry of a completions
// engine from the ready depths. Called right after buildReady.
func (e *Engine) buildPrefixes() {
	if e.mode != ModeCompletions {
		return
	}
	n := len(e.digits)
	// One buffer holds readyEnd, memoAt, last (see below) and byReady.
	buf := make([]int32, 3*(n+1), 3*(n+1)+len(e.ready))
	last := buf[2*(n+1):]
	e.readyEnd, e.memoAt = buf[:n+1], buf[n+1:2*(n+1)]
	for _, r := range e.ready {
		if r > 0 {
			e.readyEnd[r]++
		}
	}
	for k := 1; k <= n; k++ {
		e.readyEnd[k] += e.readyEnd[k-1]
	}
	// A counting sort, with last as each ready depth's next free slot.
	copy(last, e.readyEnd)
	e.byReady = buf[3*(n+1) : 3*(n+1)+int(e.readyEnd[n])]
	for fi, r := range e.ready {
		if r > 0 {
			e.byReady[last[r-1]] = int32(fi)
			last[r-1]++
		}
	}

	// last[j] is the largest ready depth among digit j's facts: digit j
	// is live at the depths j+1..last[j]−1 and absorbed at last[j].
	absorbs := make([]bool, n+1)
	wideTo := 0 // blocks at depths below wideTo hold several valuations
	for j := range e.digits {
		last[j] = int32(j + 1)
		for _, s := range e.digits[j].slots {
			last[j] = max(last[j], e.ready[s.fact])
		}
		absorbs[last[j]] = true
		if len(e.digits[j].dom) > 1 {
			wideTo = j + 1
		}
	}
	var live, lives []int32 // lives: every memo depth's live digits, back to back
	var ends []int
	for k := 1; k < wideTo; k++ {
		if len(e.digits[k-1].dom) > 1 {
			live = append(live, int32(k-1))
		}
		live = slices.DeleteFunc(live, func(j int32) bool { return last[j] <= int32(k) })
		if !absorbs[k] {
			continue
		}
		if len(lives)+len(live) > memoGeomBudget {
			break
		}
		lives = append(lives, live...)
		ends = append(ends, len(lives))
		e.memoDepths = append(e.memoDepths, memoDepth{depth: int32(k)})
	}
	from := 0
	for i, end := range ends {
		e.memoDepths[i].live = lives[from:end:end]
		from = end
	}
	i := int32(len(e.memoDepths))
	for k := n; k >= 0; k-- {
		for i > 0 && e.memoDepths[i-1].depth >= int32(k) {
			i--
		}
		e.memoAt[k] = i
	}
}

// PrefixMemo records the prefix states one shard of a completion sweep
// has entered: a state is recorded when the shard's cursor lands on the
// first valuation of its block, and a later block with an equal state
// is skipped (see Cursor.RepeatSpan). A hit is confirmed on the exact
// state, never on its hash alone. Each shard owns one memo, used with
// one cursor of the engine that made it; the memo stays within a fixed
// byte budget and stops probing a depth whose hits do not pay for it.
type PrefixMemo struct {
	stats []memoStat // per memo depth of the engine
	last  int32      // the deepest memo depth still probed; −1 when none

	table   []int32 // open-addressed slots: index into entries, −1 when empty
	mask    uint32
	entries []memoEntry
	keys    []uint32 // key arena: each entry's live digits, then its distinct fact values
	full    bool     // the byte budget is spent: probe, but record no more

	set prefixSet // the cursor's prefix state
}

type memoStat struct {
	probes int64
	saved  int64 // valuations skipped beyond the leaves that hit
	off    bool
}

// memoEntry is one recorded state: its hash, its memo depth, and the
// offset of its exact key in the arena, which runs to the next entry's.
type memoEntry struct {
	h     uint64
	depth int32
	off   int32
}

const memoEntryBytes = int(unsafe.Sizeof(memoEntry{}))

// NewPrefixMemo returns an empty memo for one shard of a completion sweep
// over e, or nil when no depth of e can repeat a state: any engine not
// compiled in ModeCompletions, and shapes such as the star R(?i, ?n),
// whose centre keeps every other digit live until the last depth. Memos
// come from a pool that Release refills.
func (e *Engine) NewPrefixMemo() *PrefixMemo {
	n := len(e.memoDepths)
	if n == 0 {
		return nil
	}
	m, _ := memoPool.Get().(*PrefixMemo)
	if m == nil {
		m = new(PrefixMemo)
		m.rehash(32)
	}
	m.stats = slices.Grow(m.stats[:0], n)[:n]
	clear(m.stats)
	m.last = int32(n - 1)
	m.set.reset(len(e.byReady))
	return m
}

// Release empties m and hands it back for a later sweep to reuse. The
// memo must not be used afterwards.
func (m *PrefixMemo) Release() {
	if len(m.table) > memoKeepSlots || cap(m.set.table) > memoKeepSlots {
		return
	}
	for i := range m.table {
		m.table[i] = -1
	}
	m.entries, m.keys, m.full = m.entries[:0], m.keys[:0], false
	memoPool.Put(m)
}

// RepeatSpan reports whether the cursor sits on the first valuation of a
// block whose prefix state m has already recorded. If so it returns the
// block's length, clipped to limit (≥ 1), and arms Pass to land on the
// first valuation past the block, as MatchSpan does for a witness block.
// Otherwise it records the states of the blocks the cursor enters here
// and returns 0. It probes the shallowest, widest block first.
func (c *Cursor) RepeatSpan(m *PrefixMemo, limit int64) int64 {
	e := c.eng
	// The cursor sits on the first valuation of the blocks at depth
	// start and beyond: digits start.. are all 0.
	start := len(c.idx)
	for start > 0 && c.idx[start-1] == 0 {
		start--
	}
	for i := e.memoAt[start]; i <= m.last; i++ {
		st := &m.stats[i]
		if st.off {
			continue
		}
		md := &e.memoDepths[i]
		m.set.sync(c, md.depth)
		h := m.set.hash(c, md)
		st.probes++
		slot, hit := m.find(c, i, md, h)
		if hit {
			c.depth = md.depth
			span := c.blockSpan(limit)
			st.saved += span - 1
			return span
		}
		if st.probes >= memoTrial && st.saved <= memoProbeCost*(st.probes-memoTrial) {
			st.off = true
			for m.last >= 0 && m.stats[m.last].off {
				m.last--
			}
			continue
		}
		m.insert(c, i, md, h, slot)
	}
	return 0
}

// find looks up the cursor's state at memo depth i, hashing to h. On a
// miss it returns the empty slot where the state belongs.
func (m *PrefixMemo) find(c *Cursor, i int32, md *memoDepth, h uint64) (uint32, bool) {
	s := uint32(h) & m.mask
	for ; m.table[s] >= 0; s = (s + 1) & m.mask {
		j := m.table[s]
		if en := &m.entries[j]; en.h == h && en.depth == i && m.set.equals(c, md, m.key(j)) {
			return s, true
		}
	}
	return s, false
}

// key returns entry j's exact key.
func (m *PrefixMemo) key(j int32) []uint32 {
	end := int32(len(m.keys))
	if int(j+1) < len(m.entries) {
		end = m.entries[j+1].off
	}
	return m.keys[m.entries[j].off:end]
}

// insert records the cursor's state at memo depth i in the empty slot
// find returned, unless the byte budget does not allow it.
func (m *PrefixMemo) insert(c *Cursor, i int32, md *memoDepth, h uint64, slot uint32) {
	if m.full {
		return
	}
	size := len(m.table)
	if !m.reserve(m.set.keyLen(c, md)) {
		m.full = true
		return
	}
	if len(m.table) != size { // reserve rehashed: find the slot again
		for slot = uint32(h) & m.mask; m.table[slot] >= 0; slot = (slot + 1) & m.mask {
		}
	}
	m.table[slot] = int32(len(m.entries))
	m.entries = append(m.entries, memoEntry{h: h, depth: i, off: int32(len(m.keys))})
	m.keys = m.set.appendKey(c, md, m.keys)
}

// reserve makes room for one more entry whose key has n words, doubling
// whatever is full, and reports false instead when the grown memo would
// exceed memoBudget.
func (m *PrefixMemo) reserve(n int) bool {
	keys, entries, table := cap(m.keys), cap(m.entries), len(m.table)
	if len(m.keys)+n > keys {
		keys = max(2*keys, len(m.keys)+n)
	}
	if len(m.entries) == entries {
		entries = max(2*entries, 8)
	}
	if 2*(len(m.entries)+1) > table {
		table *= 2
	}
	if 4*keys+memoEntryBytes*entries+4*table > memoBudget {
		return false
	}
	if keys > cap(m.keys) {
		m.keys = append(make([]uint32, 0, keys), m.keys...)
	}
	if entries > cap(m.entries) {
		m.entries = append(make([]memoEntry, 0, entries), m.entries...)
	}
	if table > len(m.table) {
		m.rehash(table)
	}
	return true
}

// rehash rebuilds the slot table at the given power-of-two size.
func (m *PrefixMemo) rehash(size int) {
	m.table = make([]int32, size)
	for i := range m.table {
		m.table[i] = -1
	}
	m.mask = uint32(size - 1)
	for j := range m.entries {
		s := uint32(m.entries[j].h) & m.mask
		for m.table[s] >= 0 {
			s = (s + 1) & m.mask
		}
		m.table[s] = int32(j)
	}
}

// prefixSet is the incremental prefix state of a memo's cursor: the
// distinct values of the facts byReady[:added], one representative fact
// per value. The representatives form a stack in byReady order, so a
// move of digit j rolls back exactly the facts of ready depth above j —
// the facts it can change — and a LIFO removal restores the
// open-addressed table to exactly its earlier state. A representative's
// value is read live from the cursor's arena: while it is in the set,
// its digits have not moved.
type prefixSet struct {
	table []int32 // open-addressed slots: index into reps, −1 when empty
	mask  uint32
	reps  []int32   // byReady positions of the representatives
	slots []int32   // each representative's table slot
	sums  []Hash128 // sums[i]: the hash sum of the values of reps[:i+1]
	added int32
	// digits holds the cursor's leading digits at the last sync. The
	// cursor only moves forward, so a prefix of digits that reads the
	// same at the next sync has not moved in between.
	digits []int32
}

// reset empties the set and sizes its table for an engine with the
// given number of non-ground facts.
func (p *prefixSet) reset(facts int) {
	size := 16
	for size < 2*facts {
		size *= 2
	}
	if cap(p.table) < size {
		p.table = make([]int32, size)
	}
	p.table = p.table[:size]
	for i := range p.table {
		p.table[i] = -1
	}
	p.mask = uint32(size - 1)
	p.reps, p.slots, p.sums, p.added = p.reps[:0], p.slots[:0], p.sums[:0], 0
	p.digits = p.digits[:0]
}

// sync brings the set to depth d: the facts of ready depth ≤ d at the
// cursor's valuation. Facts whose digits all lie in the leading run the
// cursor has not moved since the last sync are kept. The cursor only
// moves forward (a memo serves one cursor from its Seek on), so that
// run ends at the first digit that reads differently.
func (p *prefixSet) sync(c *Cursor, d int32) {
	e := c.eng
	j := 0
	for n := min(len(p.digits), int(d)); j < n && p.digits[j] == int32(c.idx[j]); j++ {
	}
	if keep := e.readyEnd[j]; keep < p.added {
		for top := len(p.reps) - 1; top >= 0 && p.reps[top] >= keep; top-- {
			p.table[p.slots[top]] = -1
			p.reps, p.slots, p.sums = p.reps[:top], p.slots[:top], p.sums[:top]
		}
		p.added = keep
	}
	for end := e.readyEnd[d]; p.added < end; p.added++ {
		p.add(c, p.added)
	}
	p.digits = p.digits[:j]
	for k := j; k < int(d); k++ {
		p.digits = append(p.digits, int32(c.idx[k]))
	}
}

// add adds fact byReady[pos], as a new representative unless its value
// is already present.
func (p *prefixSet) add(c *Cursor, pos int32) {
	e := c.eng
	fi := e.byReady[pos]
	h := c.factHash[fi]
	s := uint32(h.Lo) & p.mask
	for ; p.table[s] >= 0; s = (s + 1) & p.mask {
		if r := e.byReady[p.reps[p.table[s]]]; c.factHash[r] == h && c.factEqual(r, fi) {
			return
		}
	}
	sum := h
	if n := len(p.sums); n > 0 {
		sum = add128(p.sums[n-1], h)
	}
	p.table[s] = int32(len(p.reps))
	p.reps = append(p.reps, pos)
	p.slots = append(p.slots, int32(s))
	p.sums = append(p.sums, sum)
}

// contains reports whether the fact value (rel, args...) is in the set.
func (p *prefixSet) contains(c *Cursor, rel uint32, args []uint32) bool {
	e := c.eng
	h := factHash(rel, args)
	for s := uint32(h.Lo) & p.mask; p.table[s] >= 0; s = (s + 1) & p.mask {
		r := e.byReady[p.reps[p.table[s]]]
		if c.factHash[r] == h && e.factRel[r] == rel && slices.Equal(e.factArgs(c.args, r), args) {
			return true
		}
	}
	return false
}

// hash hashes the state at memo depth md: the depth, the hash sum of the
// set's values and the live digits' values.
func (p *prefixSet) hash(c *Cursor, md *memoDepth) uint64 {
	var s Hash128
	if n := len(p.sums); n > 0 {
		s = p.sums[n-1]
	}
	x := mix64(s.Lo ^ mix64(s.Hi+uint64(md.depth)))
	for _, j := range md.live {
		x = mix64(x ^ (uint64(c.idx[j]) + factSeedLo))
	}
	return x
}

// keyLen is the length of the exact key of the state at memo depth md.
func (p *prefixSet) keyLen(c *Cursor, md *memoDepth) int {
	e := c.eng
	n := len(md.live)
	for _, pos := range p.reps {
		fi := e.byReady[pos]
		n += 1 + int(e.factOff[fi+1]-e.factOff[fi])
	}
	return n
}

// appendKey appends the exact key of the state at memo depth md to dst:
// the live digits' domain indices, then every distinct fact value as
// (rel, args...).
func (p *prefixSet) appendKey(c *Cursor, md *memoDepth, dst []uint32) []uint32 {
	e := c.eng
	for _, j := range md.live {
		dst = append(dst, uint32(c.idx[j]))
	}
	for _, pos := range p.reps {
		fi := e.byReady[pos]
		dst = append(dst, e.factRel[fi])
		dst = append(dst, e.factArgs(c.args, fi)...)
	}
	return dst
}

// equals reports whether the state at memo depth md equals the state
// whose exact key is key: equal live digits, and each of the key's
// distinct fact values present in the set. Keys of equal length then
// hold the same values, as both sides list distinct values and every
// value takes at least one word.
func (p *prefixSet) equals(c *Cursor, md *memoDepth, key []uint32) bool {
	if len(key) != p.keyLen(c, md) {
		return false
	}
	for i, j := range md.live {
		if key[i] != uint32(c.idx[j]) {
			return false
		}
	}
	e := c.eng
	for off := len(md.live); off < len(key); {
		rel := key[off]
		n := int(e.relArity[rel]) + 1
		if !p.contains(c, rel, key[off+1:off+n]) {
			return false
		}
		off += n
	}
	return true
}
