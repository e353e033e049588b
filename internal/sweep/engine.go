// Package sweep implements a compiled valuation-sweep engine: the shared
// substrate under the brute-force counters, the completion enumerator and
// the sampling estimators.
//
// Compiling a database once per sweep interns relations, constants and
// domain values into dense uint32 IDs and flattens the facts into a slotted
// arena in which every null owns the list of (fact, position) slots it
// patches. A Cursor then drives the mixed-radix odometer of the valuation
// space incrementally: advancing digit k patches only null k's slots, keeps
// an order-independent 128-bit hash of the current completion's fact set up
// to date, and re-evaluates the (compiled) query only when a relation the
// query mentions was touched — so one step costs O(slots changed) instead
// of O(|D|), with zero allocations. Queries in the syntactic fragment
// (BCQ, UCQ, inequalities, negations, TRUE) are compiled to run directly
// over the interned arena; opaque cq.Func queries fall back to a full
// re-check on a materialized core.Instance.
//
// An Engine is read-only after Compile, so any number of cursors can
// share it; a database that changes is compiled again.
//
// For counting valuations the engine additionally applies relevant-null
// pruning: a null occurring only in relations the query never mentions
// cannot influence the verdict, so it is factored out of the enumeration as
// a multiplicative |dom| term. The enumerated space shrinks from the full
// product to the product over relevant nulls; Engine.Multiplier carries the
// factored-out term.
//
// Index order is exactly that of core.ValuationSpace (nulls sorted by ID,
// the largest ID varying fastest, restricted to the enumerated digits), so
// sharded sweeps merge bit-identically to a serial pass.
//
// Counting sweeps of a monotone program (BCQ, UCQ, inequalities, TRUE) are
// output-sensitive: every fact carries a ready depth, one past the largest
// digit among its nulls, and a successful evaluation records the witness
// depth w, the largest ready depth among the facts its match used. Every
// valuation that agrees with the current one on digits 0..w−1 keeps those
// facts, so the same match satisfies it; in index order these valuations
// form one contiguous block, and Cursor.MatchSpan hands the block's
// remaining length to the caller, who counts it without visiting it and
// moves on with Pass. Negated and opaque programs are not monotone
// and always get a span of 1. How far a block reaches depends on null-ID
// order: a witness whose nulls all have small IDs fixes only leading
// digits.
//
// Completion sweeps skip blocks too, through a prefix-state memo (see
// memo.go). The completions of a block at depth k depend only on its
// prefix state: the distinct values of the facts of ready depth ≤ k, and
// the values of the digits below k that still occur in a fact of larger
// ready depth. A shard's PrefixMemo records the state of every block it
// enters at the block's first valuation; when a later block's state
// repeats one, Cursor.RepeatSpan grants the whole block and Pass skips
// it, since it can only hold completions the shard has already seen.
// The rule reasons about completions, not verdicts, so it holds for
// negated and opaque queries as well; a star R(?i, ?n), whose centre
// keeps every digit live until the last depth, gets no memo.
package sweep

import (
	"math/big"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Mode selects what a compiled engine is used for.
type Mode int

const (
	// ModeValuations counts/inspects valuations: relevant-null pruning is
	// applied (for syntactic queries), completion hashing is off.
	ModeValuations Mode = iota
	// ModeCompletions deduplicates completions: every null is enumerated
	// and the cursor maintains the incremental 128-bit set hash.
	ModeCompletions
	// ModeSample is random access over the full valuation space (no
	// pruning, no completion hashing): the substrate of the Monte Carlo
	// estimators, which must sample the same distribution — and consume
	// the same RNG stream — as core.ValuationSpace.Sample.
	ModeSample
)

// slot is one argument position patched by a null: args[factOff[fact]+pos].
type slot struct {
	fact int32
	pos  int32
}

// digit is one enumerated null: a mixed-radix digit of the sweep.
type digit struct {
	null  core.NullID
	dom   []uint32 // interned domain constants, in domain order
	slots []slot
	// dirty reports whether advancing this digit can change the query
	// verdict, i.e. whether some slot lives in a relation the query
	// mentions. Clean digits leave the cached verdict valid.
	dirty bool
	// slotHash, in ModeCompletions, holds per slot the fact's
	// precomputed hash at each domain value — filled by buildSlotHashes
	// for slots whose fact contains no other null, nil entries
	// otherwise. Aligned with slots when non-nil.
	slotHash [][]Hash128
}

// Engine is a database compiled for sweeping, safe for concurrent use by
// any number of Cursors. It is read-only after Compile: a database that
// changes needs a fresh compile.
type Engine struct {
	mode Mode

	values *Interner // constants and domain values
	rels   *Interner // relation names

	relArity []int32
	relFacts [][]int32 // fact indices grouped per relation ID

	factRel  []uint32
	factOff  []int32  // fact i's args live at [factOff[i], factOff[i+1])
	tmplArgs []uint32 // argument arena template; null positions hold 0

	digits []digit

	// ready holds each arena fact's ready depth: 1 + the largest digit
	// index among its null slots, 0 for a ground fact (see buildReady).
	ready []int32

	// Prefix-state geometry of a completions engine (see memo.go):
	// byReady lists the non-ground facts by ascending ready depth,
	// readyEnd[k] counts those of ready depth ≤ k, memoDepths are the
	// depths a PrefixMemo probes, and memoAt[k] indexes the first of
	// them at or past depth k.
	byReady    []int32
	readyEnd   []int32
	memoDepths []memoDepth
	memoAt     []int32

	prog program

	size       *big.Int // enumerated (relevant) space size
	multiplier *big.Int // product of the pruned nulls' domain sizes
	total      *big.Int // full valuation-space size = size × multiplier
	pruned     int      // number of pruned (irrelevant) nulls

	// Bitset-compiled membership (see bitset.go): the word-parallel atom
	// matching plan; nil when no atom profits, the budget is exceeded,
	// or bitsets are disabled.
	bits *bitsetPlan

	// Atom ordering (see order.go): orderNote describes the order the
	// engine evaluates with.
	orderNote string
}

// CompileOptions are the escape hatches of CompileWith. The zero value
// is the default compilation: bitset membership when profitable,
// cost-ordered atoms.
type CompileOptions struct {
	// DisableBitsets pins the scalar evaluation path: no bitset
	// membership plan is compiled.
	DisableBitsets bool
	// SyntacticOrder pins the query's own (syntactic) atom order
	// instead of the cost-driven most-bound-first reordering.
	SyntacticOrder bool
}

// Compile builds the sweep engine for db and q under the given mode with
// default options. It returns an error if some null of db lacks a domain.
func Compile(db *core.Database, q cq.Query, mode Mode) (*Engine, error) {
	return CompileWith(db, q, mode, CompileOptions{})
}

// valueBound bounds how many distinct values a compile of db interns:
// the constant arguments of its facts plus its domains' values, a
// uniform database's shared domain counted once. Sizing the value
// interner by it keeps the compile from growing and rehashing the table.
func valueBound(db *core.Database) int {
	n := 0
	for _, f := range db.Facts() {
		for _, a := range f.Args {
			if !a.IsNull() {
				n++
			}
		}
	}
	for _, m := range db.Nulls() {
		if n += len(db.Domain(m)); db.Uniform() {
			break
		}
	}
	return n
}

// CompileWith is Compile with explicit escape hatches.
func CompileWith(db *core.Database, q cq.Query, mode Mode, opts CompileOptions) (*Engine, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		mode:   mode,
		values: newInterner(valueBound(db)),
		rels:   NewInterner(),
	}

	facts := db.Facts()
	nullSlots := make(map[core.NullID][]slot)
	e.factRel = make([]uint32, len(facts))
	e.factOff = make([]int32, len(facts)+1)
	for i, f := range facts {
		rid := e.rels.Intern(f.Rel)
		if int(rid) == len(e.relArity) {
			e.relArity = append(e.relArity, int32(len(f.Args)))
			e.relFacts = append(e.relFacts, nil)
		}
		e.factRel[i] = rid
		e.factOff[i] = int32(len(e.tmplArgs))
		e.relFacts[rid] = append(e.relFacts[rid], int32(i))
		for p, a := range f.Args {
			if a.IsNull() {
				e.tmplArgs = append(e.tmplArgs, 0)
				nullSlots[a.NullID()] = append(nullSlots[a.NullID()], slot{fact: int32(i), pos: int32(p)})
			} else {
				e.tmplArgs = append(e.tmplArgs, e.values.Intern(a.Constant()))
			}
		}
	}
	e.factOff[len(facts)] = int32(len(e.tmplArgs))

	e.prog = compileQuery(e, q)
	e.orderAtoms(opts.SyntacticOrder)

	// Per-relation relevance: a relation the query mentions (or every
	// relation, for opaque queries whose signature is unknown).
	relevant := make([]bool, e.rels.Len())
	if e.prog.opaque != nil {
		for i := range relevant {
			relevant[i] = true
		}
	} else {
		for _, d := range e.prog.disjuncts {
			for _, a := range d.atoms {
				// Atoms over relations the database does not have carry a
				// sentinel ID; they have no facts to mark relevant.
				if int(a.rel) < len(relevant) {
					relevant[a.rel] = true
				}
			}
		}
	}

	prune := mode == ModeValuations && e.prog.opaque == nil
	e.size, e.multiplier = big.NewInt(1), big.NewInt(1)
	nulls := db.Nulls()
	e.digits = make([]digit, 0, len(nulls))
	for _, n := range nulls {
		dom := db.Domain(n)
		slots := nullSlots[n]
		dirty := false
		for _, s := range slots {
			if relevant[e.factRel[s.fact]] {
				dirty = true
				break
			}
		}
		if prune && !dirty {
			e.multiplier.Mul(e.multiplier, big.NewInt(int64(len(dom))))
			e.pruned++
			continue
		}
		dg := digit{null: n, dom: make([]uint32, len(dom)), slots: slots, dirty: dirty}
		for i, c := range dom {
			dg.dom[i] = e.values.Intern(c)
		}
		e.digits = append(e.digits, dg)
		e.size.Mul(e.size, big.NewInt(int64(len(dom))))
	}
	e.total = new(big.Int).Mul(e.size, e.multiplier)
	e.buildReady()
	e.buildPrefixes()
	if !opts.DisableBitsets {
		e.buildBitsets()
	}
	e.buildSlotHashes()
	return e, nil
}

// buildReady computes every fact's ready depth from the digits' slot
// lists: a fact whose nulls are all digits below w keeps its values across
// every valuation sharing digits 0..w−1 with the current one.
func (e *Engine) buildReady() {
	e.ready = make([]int32, len(e.factRel))
	for k := range e.digits {
		for _, s := range e.digits[k].slots {
			e.ready[s.fact] = int32(k + 1)
		}
	}
}

// slotHashBudget caps the precomputed per-(slot, domain value) fact
// hashes of a completions engine: 16 B per entry, 4 MiB at the cap.
const slotHashBudget = 1 << 18

// buildSlotHashes precomputes, for every digit slot whose fact contains
// no other null, the fact's hash at each of the digit's domain values:
// completion stepping then replaces the fact rehash (two mixing lanes
// per argument) with a single table load. Facts holding several nulls
// keep hashing live — their hash depends on the other nulls' current
// values. Beyond the budget the remaining slots simply stay live-hashed.
func (e *Engine) buildSlotHashes() {
	if e.mode != ModeCompletions {
		return
	}
	nullSlots := make([]int32, len(e.factRel))
	for k := range e.digits {
		for _, s := range e.digits[k].slots {
			nullSlots[s.fact]++
		}
	}
	budget := slotHashBudget
	var scratch []uint32
	for k := range e.digits {
		dg := &e.digits[k]
		for si, s := range dg.slots {
			if nullSlots[s.fact] != 1 || budget < len(dg.dom) {
				continue
			}
			budget -= len(dg.dom)
			args := e.factArgs(e.tmplArgs, s.fact)
			scratch = append(scratch[:0], args...)
			hs := make([]Hash128, len(dg.dom))
			for i, v := range dg.dom {
				scratch[s.pos] = v
				hs[i] = factHash(e.factRel[s.fact], scratch)
			}
			if dg.slotHash == nil {
				dg.slotHash = make([][]Hash128, len(dg.slots))
			}
			dg.slotHash[si] = hs
		}
	}
}

// Mode returns the mode the engine was compiled under.
func (e *Engine) Mode() Mode { return e.mode }

// Size returns the number of valuations the sweep enumerates: the full
// valuation-space size, except in ModeValuations where irrelevant nulls
// have been factored out.
func (e *Engine) Size() *big.Int { return new(big.Int).Set(e.size) }

// Multiplier returns the factored-out term ∏ |dom(⊥)| over the pruned
// nulls (1 when nothing was pruned). Each enumerated valuation stands for
// Multiplier() valuations of the full space, all with the same verdict.
func (e *Engine) Multiplier() *big.Int { return new(big.Int).Set(e.multiplier) }

// TotalSize returns the full valuation-space size, Size × Multiplier.
func (e *Engine) TotalSize() *big.Int { return new(big.Int).Set(e.total) }

// Pruned returns how many irrelevant nulls were factored out of the sweep.
func (e *Engine) Pruned() int { return e.pruned }

// Opaque reports whether the query fell outside the compiled fragment and
// is re-checked on a materialized instance at every dirty step.
func (e *Engine) Opaque() bool { return e.prog.opaque != nil }

func (e *Engine) factArgs(args []uint32, fi int32) []uint32 {
	return args[e.factOff[fi]:e.factOff[fi+1]]
}
