// Package fingerprint computes canonical forms and content fingerprints
// of incomplete databases and Boolean queries, so that syntactically
// different but semantically identical inputs can share one cache entry.
//
// Databases are canonicalized up to null renaming and fact order: labeled
// nulls are anonymous placeholders, so R(?1,?2) with dom(?1)={a},
// dom(?2)={a,b} and R(?7,?3) with dom(?7)={a}, dom(?3)={b,a} describe the
// same incomplete database and must fingerprint identically. Queries are
// canonicalized up to variable renaming and atom order. Domain order is
// also normalized, since the counting problems of the paper are
// order-insensitive.
//
// A database's form is compositional. Two nulls are connected when a fact
// holds both, and D = (T, dom) splits into null-connected components whose
// valuations are independent. The form is the header (the shared domain of
// a uniform database), the ground facts, sorted, and then every component,
// canonicalized on its own with its nulls named ?1, ?2, … and the
// components sorted. A database's digest hashes the header, the ground
// facts and the sorted digests of its components. DatabaseDigest computes
// it from scratch; an Index keeps one digest per component of a database
// and, told what a write touched, recomputes only those components.
//
// One integer colour-refinement kernel orders the nulls of a component
// and the variables of a query. A colour is a dense integer rank. A null
// starts at the rank of its sorted domain among the component's distinct
// domains; a query's variables all start at one colour. In each round a
// null's signature is its colour plus the sorted list of its
// occurrences, and sorting the signatures gives the next colours. An
// occurrence is the relation's rank, the position, and for each argument
// either "this null", a constant's rank or the co-occurring null's
// colour; an inequality is an occurrence whose two ends are
// interchangeable. Rounds stop when the number of classes stops growing.
// Only facts that hold a null take part; ground facts are only rendered.
// The kernel compares integers in flat, reused buffers: a round builds no
// string, map or hash.
//
// Every comparison uses renaming-invariant data. Relation and constant
// ranks come from sorted string order and domain ranks from the sorted
// order of the sorted domains, none of which a null renaming can change;
// colours are ranks of signatures built from them. So the colour a null
// ends with, and the canonical order of distinct colours, do not depend
// on how the nulls are named. Only the order of ranks enters a
// comparison, so ranks taken over the whole database and ranks taken
// over one component give a component the same form.
//
// Canonicalization is sound and best-effort complete. Two inputs with
// the same canonical form are always isomorphic: the form quotes every
// relation name and constant and lists every domain and fact, so it
// describes the input completely and a shared form exhibits the
// renaming. That is what cache correctness rests on. The converse —
// isomorphic inputs always sharing a form — holds whenever refinement
// gives every null of a component its own colour. Sorting the component
// forms makes the order of the components irrelevant, so a renaming that
// permutes whole components, such as the pairs of a Codd table, keeps the
// form. Nulls still tied at the fixpoint inside one component are ordered
// by null ID (variables by name), so a renaming that reorders them, such
// as the nulls of a cycle, may change the form: a cache miss, never a
// wrong answer.
package fingerprint

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Kind tags which problem a fingerprint identifies a result of, so that
// e.g. #Val and #Comp results over the same input never collide.
type Kind string

// The problem kinds used as cache-key components.
const (
	KindVal      Kind = "val"
	KindComp     Kind = "comp"
	KindCertain  Kind = "certain"
	KindPossible Kind = "possible"
)

// Of returns the fingerprint of the triple (database, query, problem
// kind): a hex-encoded SHA-256 of the kind, the database's digest and the
// query's canonical form, suitable as a cache key.
func Of(db *core.Database, q cq.Query, kind Kind) string {
	return OfDigest(DatabaseDigest(db), Query(q), kind)
}

// A Digest is a SHA-256 identifying a canonical form: of one component,
// of a database's ground facts, or of a whole database. A fingerprint
// hashes a database's digest in place of its form, so a session that
// keeps the digest per database version fingerprints each query in time
// independent of the database's size.
type Digest [sha256.Size]byte

// OfDigest is Of over an already-computed database digest and a
// canonical query form. It produces exactly the fingerprints Of produces.
func OfDigest(db Digest, queryCanonical string, kind Kind) string {
	var buf [128]byte
	b := append(buf[:0], kind...)
	b = append(b, 0)
	b = append(b, db[:]...)
	b = append(b, 0)
	b = append(b, queryCanonical...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Database returns the canonical form of db, one line per item: a uniform
// database's shared domain (`uniform` and its sorted values), the ground
// facts, sorted, and then for every component, in sorted order, an empty
// line followed by the component's form. A component's form names its
// nulls ?1, ?2, … in a renaming-invariant order and lists, in a
// non-uniform database, the sorted domain of each (`dom ?i` and its
// values), and then its facts, sorted. Equal canonical forms mean the
// databases are identical up to null renaming and fact/domain order (and
// therefore have identical counting behaviour). The form is textual for
// debuggability but is not a round-trippable database file: domain and
// fact order are deliberately discarded. Relation names and constants
// are quoted, so no name can forge the form's line or fact structure.
func Database(db *core.Database) string {
	r := refiners.Get().(*refiner)
	defer r.release()
	facts := db.Facts()
	n := r.load(db, db.Nulls(), facts)
	r.cspans = r.cspans[:0]
	for c := range n {
		r.cspans = append(r.cspans, r.component(db, facts, c))
	}
	sortSpans(r.buf, r.cspans)
	ground := r.groundLines(facts)

	// Every line but the first starts with a newline, and a component
	// starts with an empty line.
	out := len(r.buf)
	if db.Uniform() {
		r.appendHeader(db)
	}
	for _, sp := range ground {
		if len(r.buf) > out {
			r.buf = append(r.buf, '\n')
		}
		r.buf = append(r.buf, r.buf[sp.lo:sp.hi]...)
	}
	for _, sp := range r.cspans {
		if len(r.buf) > out {
			r.buf = append(r.buf, '\n')
		}
		r.buf = append(r.buf, '\n')
		r.buf = append(r.buf, r.buf[sp.lo:sp.hi]...)
	}
	return string(r.buf[out:])
}

// DatabaseDigest returns the digest of db's canonical form without
// rendering the form: the SHA-256 of the header, the digest of the sorted
// ground-fact lines (appendGroundLine) and the digests of the
// components, sorted (combine). An Index keeps the same digest across
// writes.
func DatabaseDigest(db *core.Database) Digest {
	r := refiners.Get().(*refiner)
	defer r.release()
	facts := db.Facts()
	n := r.load(db, db.Nulls(), facts)
	r.digests = r.digests[:0]
	for c := range n {
		r.digests = append(r.digests, r.digestComponent(db, facts, c))
	}
	slices.SortFunc(r.digests, compareDigests)
	ground := r.groundLines(facts)
	lo := len(r.buf)
	for _, sp := range ground {
		r.buf = appendGroundLine(r.buf, r.buf[sp.lo:sp.hi])
	}
	return r.combine(db, sha256.Sum256(r.buf[lo:]), r.digests)
}

// digestComponent canonicalizes component c of the loaded facts and
// returns the digest of its form, leaving r.buf as it was. Every
// component digest, fresh or kept by an Index, comes from here.
func (r *refiner) digestComponent(db *core.Database, facts []core.Fact, c int) Digest {
	mark := len(r.buf)
	sp := r.component(db, facts, c)
	d := sha256.Sum256(r.buf[sp.lo:sp.hi])
	r.buf = r.buf[:mark]
	return d
}

// appendGroundLine appends a ground fact's line of the form to the text
// the ground digest hashes: the line and a newline.
func appendGroundLine[T string | []byte](buf []byte, line T) []byte {
	return append(append(buf, line...), '\n')
}

// combine returns the digest of a database from the digest of its ground
// facts and the digests of its components, sorted by compareDigests: the
// SHA-256 of the header line, the ground digest and the component digests
// in order. It uses r.buf as scratch.
func (r *refiner) combine(db *core.Database, ground Digest, components []Digest) Digest {
	lo := len(r.buf)
	if db.Uniform() {
		r.appendHeader(db)
	}
	r.buf = append(r.buf, '\n')
	r.buf = append(r.buf, ground[:]...)
	for _, d := range components {
		r.buf = append(r.buf, d[:]...)
	}
	sum := sha256.Sum256(r.buf[lo:])
	r.buf = r.buf[:lo]
	return sum
}

// compareDigests orders digests by their bytes, the order the database
// digest lists its component digests in.
func compareDigests(a, b Digest) int { return bytes.Compare(a[:], b[:]) }

// appendHeader renders a uniform database's header line into r.buf.
func (r *refiner) appendHeader(db *core.Database) {
	r.buf = append(r.buf, "uniform"...)
	r.buf = appendDomain(r.buf, r.sorted(db.UniformDomain()))
}

// load sets up the database-level state for facts, whose nulls are among
// nulls (sorted), and splits them into components (see split). Relation,
// constant and domain ranks are taken over all of facts once.
func (r *refiner) load(db *core.Database, nulls []core.NullID, facts []core.Fact) int {
	k := len(nulls)
	// The facts that hold a null become tuples, each argument a null's
	// index in nulls or, until it is ranked, a constant's placeholder;
	// strs holds each argument's constant.
	r.ids, r.ground, r.cslot, r.strs = r.ids[:0], r.ground[:0], r.cslot[:0], r.strs[:0]
	r.gstart, r.gargs = append(r.gstart[:0], 0), r.gargs[:0]
	for i, f := range facts {
		if f.IsGround() {
			r.ground = append(r.ground, int32(i))
			continue
		}
		for _, a := range f.Args {
			if a.IsNull() {
				e, _ := slices.BinarySearch(nulls, a.NullID())
				r.gargs = append(r.gargs, int32(e))
				r.strs = append(r.strs, "")
			} else {
				r.cslot = append(r.cslot, int32(len(r.gargs)))
				r.gargs = append(r.gargs, 0)
				r.strs = append(r.strs, a.Constant())
			}
		}
		r.ids = append(r.ids, int32(i))
		r.gstart = append(r.gstart, int32(len(r.gargs)))
	}
	// Relations and constants are ranked in sorted string order, which no
	// null renaming can change.
	r.glabel = resize(r.glabel, len(r.ids))
	r.perm = identity(resize(r.perm, len(r.ids)))
	rankBy(r.perm, r.glabel, func(a, b int32) int {
		return strings.Compare(facts[r.ids[a]].Rel, facts[r.ids[b]].Rel)
	})
	rankBy(r.cslot, r.gargs, func(a, b int32) int {
		return strings.Compare(r.strs[a], r.strs[b])
	})
	for _, s := range r.cslot {
		r.gargs[s] = ^r.gargs[s]
	}

	// A null's domain rank orders the sorted domains, and each distinct
	// domain's quoted text is rendered once.
	r.buf, r.spans = r.buf[:0], r.spans[:0]
	if !db.Uniform() {
		r.doms, r.strs = resize(r.doms, k), r.strs[:0]
		for e, n := range nulls {
			r.doms[e] = r.sorted(db.Domain(n))
		}
		r.dom = resize(r.dom, k)
		r.perm = identity(resize(r.perm, k))
		rankBy(r.perm, r.dom, func(a, b int32) int {
			x, y := r.doms[a], r.doms[b]
			switch { // a null without a domain sorts first
			case x == nil && y != nil:
				return -1
			case x != nil && y == nil:
				return 1
			}
			return slices.Compare(x, y)
		})
		for i, e := range r.perm {
			if i > 0 && r.dom[e] == r.dom[r.perm[i-1]] {
				continue
			}
			lo := len(r.buf)
			r.buf = appendDomain(r.buf, r.doms[e])
			r.spans = append(r.spans, span{lo, len(r.buf)})
		}
	}
	return r.split(k)
}

// split partitions the k loaded nulls into null-connected components:
// two nulls are connected when a tuple holds both. Components are
// numbered in the order of their smallest null; members lists each one's
// nulls and tuples, both ascending. It returns the number of components.
func (r *refiner) split(k int) int {
	// Union-find in which a root is its set's smallest null.
	parent := identity(resize(r.parent, k))
	for t := 0; t+1 < len(r.gstart); t++ {
		root := int32(-1)
		for _, v := range r.gargs[r.gstart[t]:r.gstart[t+1]] {
			if v < 0 {
				continue
			}
			v = find(parent, v)
			switch {
			case root < 0:
				root = v
			case v < root:
				parent[root], root = v, v
			case v > root:
				parent[v] = root
			}
		}
	}
	// Number the components by their roots, then group the nulls and the
	// tuples of each by a counting sort that keeps them ascending. A
	// tuple's component is its first null's.
	comp := resize(r.comp, k)
	n := 0
	for e := range int32(k) {
		if root := find(parent, e); root == e {
			comp[e] = int32(n)
			n++
		} else {
			comp[e] = comp[root]
		}
	}
	r.tcomp = resize(r.tcomp, len(r.ids))
	for t := range r.tcomp {
		s := r.gstart[t]
		for r.gargs[s] < 0 {
			s++
		}
		r.tcomp[t] = comp[r.gargs[s]]
	}
	r.elemStart, r.elems = groupBy(r.elemStart, r.elems, comp, n)
	r.tupleStart, r.tuples = groupBy(r.tupleStart, r.tuples, r.tcomp, n)
	r.parent, r.comp = parent, comp
	return n
}

// find returns the root of x's set in a union-find parent array,
// halving the path on the way.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// groupBy lists the items 0..len(keys)-1 grouped by their key, one of n,
// keeping each group ascending: group g is items[start[g]:start[g+1]].
func groupBy(start, items, keys []int32, n int) ([]int32, []int32) {
	start = resize(start, n+1)
	clear(start)
	for _, g := range keys {
		start[g+1]++
	}
	for g := 1; g <= n; g++ {
		start[g] += start[g-1]
	}
	items = resize(items, len(keys))
	for i, g := range keys {
		items[start[g]] = int32(i)
		start[g]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return start, items
}

// members returns the nulls (as indices into the loaded nulls) and the
// tuples of component c.
func (r *refiner) members(c int) (elems, tuples []int32) {
	return r.elems[r.elemStart[c]:r.elemStart[c+1]], r.tuples[r.tupleStart[c]:r.tupleStart[c+1]]
}

// component canonicalizes component c and renders its form into r.buf,
// returning its span: in a non-uniform database the `dom` line of each
// null in canonical order, then the facts, sorted, one per line.
func (r *refiner) component(db *core.Database, facts []core.Fact, c int) span {
	canon := r.refineComponent(db, c)
	elems, tuples := r.members(c)
	// Render the facts in scratch space and sort them.
	r.lines = r.lines[:0]
	for j, t := range tuples {
		lo := len(r.buf)
		r.buf = appendFact(r.buf, facts[r.ids[t]], canon, r.args[r.start[j]:r.start[j+1]])
		r.lines = append(r.lines, span{lo, len(r.buf)})
	}
	sortSpans(r.buf, r.lines)

	out := len(r.buf)
	if !db.Uniform() {
		byCanon := resize(r.next, len(canon))
		for l, i := range canon {
			byCanon[i] = int32(l)
		}
		for i, l := range byCanon {
			r.buf = append(r.buf, "dom ?"...)
			r.buf = strconv.AppendInt(r.buf, int64(i)+1, 10)
			d := r.spans[r.dom[elems[l]]]
			r.buf = append(r.buf, r.buf[d.lo:d.hi]...)
			r.buf = append(r.buf, '\n')
		}
	}
	for i, sp := range r.lines {
		if i > 0 {
			r.buf = append(r.buf, '\n')
		}
		r.buf = append(r.buf, r.buf[sp.lo:sp.hi]...)
	}
	return span{out, len(r.buf)}
}

// refineComponent loads component c into the kernel, with its nulls
// numbered 0..k-1 in null-ID order, refines it and returns each null's
// canonical index. The initial colour is the rank of the null's domain
// among the component's.
func (r *refiner) refineComponent(db *core.Database, c int) []int32 {
	elems, tuples := r.members(c)
	if len(elems) == len(r.comp) {
		// The only component: its nulls and tuples are all of them, in
		// order.
		r.label = append(r.label[:0], r.glabel...)
		r.start = append(r.start[:0], r.gstart...)
		r.args = append(r.args[:0], r.gargs...)
	} else {
		r.local = resize(r.local, len(r.comp))
		for l, e := range elems {
			r.local[e] = int32(l)
		}
		r.label, r.args = r.label[:0], r.args[:0]
		r.start = append(r.start[:0], 0)
		for _, t := range tuples {
			r.label = append(r.label, r.glabel[t])
			for _, v := range r.gargs[r.gstart[t]:r.gstart[t+1]] {
				if v >= 0 {
					v = r.local[v]
				}
				r.args = append(r.args, v)
			}
			r.start = append(r.start, int32(len(r.args)))
		}
	}
	r.colour = resize(r.colour, len(elems))
	classes := int32(1)
	if db.Uniform() {
		clear(r.colour)
	} else {
		r.perm = identity(resize(r.perm, len(elems)))
		classes = rankBy(r.perm, r.colour, func(a, b int32) int {
			return cmp.Compare(r.dom[elems[a]], r.dom[elems[b]])
		})
	}
	return r.refine(classes)
}

// groundLines renders the loaded ground facts into r.buf and returns
// their spans, sorted.
func (r *refiner) groundLines(facts []core.Fact) []span {
	r.lines = r.lines[:0]
	for _, i := range r.ground {
		lo := len(r.buf)
		r.buf = appendFact(r.buf, facts[i], nil, nil)
		r.lines = append(r.lines, span{lo, len(r.buf)})
	}
	sortSpans(r.buf, r.lines)
	return r.lines
}

// appendFact renders f with its relation and constants quoted and its
// i-th argument, when a null, as ?(canon[slots[i]]+1).
func appendFact(buf []byte, f core.Fact, canon, slots []int32) []byte {
	buf = strconv.AppendQuote(buf, f.Rel)
	buf = append(buf, '(')
	for i, a := range f.Args {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		if a.IsNull() {
			buf = append(buf, '?')
			buf = strconv.AppendInt(buf, int64(canon[slots[i]])+1, 10)
		} else {
			buf = strconv.AppendQuote(buf, a.Constant())
		}
	}
	return append(buf, ')')
}

// sortSpans sorts spans of buf by their bytes.
func sortSpans(buf []byte, spans []span) {
	slices.SortFunc(spans, func(a, b span) int {
		return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi])
	})
}

// sorted returns dom sorted: dom itself when it already is, otherwise a
// sorted copy in r.strs. It keeps a nil domain nil.
func (r *refiner) sorted(dom []string) []string {
	if slices.IsSorted(dom) {
		return dom
	}
	lo := len(r.strs)
	r.strs = append(r.strs, dom...)
	slices.Sort(r.strs[lo:])
	return r.strs[lo:len(r.strs):len(r.strs)]
}

// appendDomain renders a sorted domain as its quoted values, each after a
// space; a null with no domain renders as " <nodomain>".
func appendDomain(buf []byte, dom []string) []byte {
	if dom == nil {
		return append(buf, " <nodomain>"...)
	}
	for _, c := range dom {
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, c)
	}
	return buf
}

// Query returns the canonical form of q: variables renamed to x1, x2, …
// in a renaming-invariant order (by the same refinement kernel as
// Database), atoms sorted, union disjuncts sorted, inequality pairs
// normalized. The form uses the syntax accepted by cq.Parse. Queries
// outside the parseable fragment (cq.Func and other user-supplied types)
// are rendered by name with an "opaque:" marker and are canonical only up
// to that name.
func Query(q cq.Query) string {
	switch q := q.(type) {
	case cq.Tautology, *cq.Tautology:
		return "TRUE"
	case *cq.Negation:
		return "!(" + Query(q.Inner) + ")"
	case *cq.UCQ:
		parts := make([]string, len(q.Disjuncts))
		for i, d := range q.Disjuncts {
			parts[i] = canonicalConjunction(d.Atoms, nil)
		}
		sort.Strings(parts)
		return strings.Join(parts, " | ")
	case *cq.BCQ:
		return canonicalConjunction(q.Atoms, nil)
	case *cq.BCQNeq:
		return canonicalConjunction(q.Base.Atoms, q.Diffs)
	default:
		return "opaque:" + q.String()
	}
}

// canonicalConjunction canonicalizes one conjunction of relational atoms
// plus optional inequality pairs. Its variables all start at one colour;
// each inequality is a tuple whose two ends are interchangeable.
func canonicalConjunction(atoms []cq.Atom, diffs [][2]string) string {
	r := refiners.Get().(*refiner)
	defer r.release()

	// Argument slots in order: every atom's variables, then every
	// inequality's pair. A variable's index is the rank of its name.
	names := r.strs[:0]
	r.start = append(r.start[:0], 0)
	for _, a := range atoms {
		names = append(names, a.Vars...)
		r.start = append(r.start, int32(len(names)))
	}
	for _, d := range diffs {
		names = append(names, d[0], d[1])
		r.start = append(r.start, int32(len(names)))
	}
	r.strs = names
	r.args = resize(r.args, len(names))
	r.perm = identity(resize(r.perm, len(names)))
	k := rankBy(r.perm, r.args, func(a, b int32) int {
		return strings.Compare(names[a], names[b])
	})
	r.label = resize(r.label, len(atoms)+len(diffs))
	r.perm = identity(resize(r.perm, len(atoms)))
	rankBy(r.perm, r.label, func(a, b int32) int {
		if c := strings.Compare(atoms[a].Rel, atoms[b].Rel); c != 0 {
			return c
		}
		return cmp.Compare(len(atoms[a].Vars), len(atoms[b].Vars))
	})
	for i := range diffs {
		r.label[len(atoms)+i] = symLabel
	}
	r.colour = resize(r.colour, int(k))
	clear(r.colour)
	canon := r.refine(min(k, 1))

	// Render every atom, then every inequality, each into r.buf, and sort
	// the atoms and the inequalities apart.
	appendVar := func(slot int) {
		r.buf = strconv.AppendInt(append(r.buf, 'x'), int64(canon[r.args[slot]])+1, 10)
	}
	r.buf, r.lines = r.buf[:0], r.lines[:0]
	slot := 0
	for _, a := range atoms {
		lo := len(r.buf)
		r.buf = append(append(r.buf, a.Rel...), '(')
		for i := range a.Vars {
			if i > 0 {
				r.buf = append(r.buf, ", "...)
			}
			appendVar(slot)
			slot++
		}
		r.buf = append(r.buf, ')')
		r.lines = append(r.lines, span{lo, len(r.buf)})
	}
	sortSpans(r.buf, r.lines)
	for range diffs {
		lo, hi := slot, slot+1
		if canon[r.args[lo]] > canon[r.args[hi]] {
			lo, hi = hi, lo
		}
		start := len(r.buf)
		appendVar(lo)
		r.buf = append(r.buf, " != "...)
		appendVar(hi)
		r.lines = append(r.lines, span{start, len(r.buf)})
		slot += 2
	}
	sortSpans(r.buf, r.lines[len(atoms):])
	out := len(r.buf)
	for i, sp := range r.lines {
		if i > 0 {
			r.buf = append(r.buf, " ∧ "...)
		}
		r.buf = append(r.buf, r.buf[sp.lo:sp.hi]...)
	}
	return string(r.buf[out:])
}
