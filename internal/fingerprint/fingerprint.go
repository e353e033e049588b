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
// One integer colour-refinement kernel orders the nulls of a database
// and the variables of a query. A colour is a dense integer rank. A null
// starts at the rank of its sorted domain among the database's distinct
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
// on how the nulls are named.
//
// Canonicalization is sound and best-effort complete. Two inputs with
// the same canonical form are always isomorphic: the form quotes every
// relation name and constant and lists every domain and fact, so it
// describes the input completely and a shared form exhibits the
// renaming. That is what cache correctness rests on. The converse —
// isomorphic inputs always sharing a form — holds whenever refinement
// gives every null its own colour. Nulls still tied at the fixpoint are
// ordered by null ID (variables by name), so a renaming that reorders
// tied nulls, such as the pairs of a Codd table or the nulls of a cycle,
// may change the form: a cache miss, never a wrong answer.
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
// kind): a hex-encoded SHA-256 of the kind, the digest of the database's
// canonical form and the query's canonical form, suitable as a cache key.
func Of(db *core.Database, q cq.Query, kind Kind) string {
	return OfDigest(DigestOf(Database(db)), Query(q), kind)
}

// A Digest is the SHA-256 of a database's canonical form. A fingerprint
// hashes the digest in place of the form, so a session that computed it
// once per database version fingerprints each query in time independent
// of the database's size.
type Digest [sha256.Size]byte

// DigestOf returns the digest of a canonical database form (the result
// of Database).
func DigestOf(dbCanonical string) Digest {
	return sha256.Sum256([]byte(dbCanonical))
}

// OfDigest is Of over the digest of an already-computed canonical
// database form and a canonical query form. It produces exactly the
// fingerprints Of produces.
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

// Database returns the canonical form of db: nulls renamed to ?1, ?2, …
// in a renaming-invariant order, domains sorted, facts rendered with the
// canonical null names and sorted. Equal canonical forms mean the
// databases are identical up to null renaming and fact/domain order (and
// therefore have identical counting behaviour). The form is textual for
// debuggability but is not a round-trippable database file: domain and
// fact order are deliberately discarded. Relation names and constants
// are quoted, so no name can forge the form's line or fact structure.
func Database(db *core.Database) string {
	r := refiners.Get().(*refiner)
	defer r.release()
	return r.renderDatabase(db, r.refine(r.loadDatabase(db)))
}

// loadDatabase sets up the kernel for db's nulls and returns the number
// of initial colours.
func (r *refiner) loadDatabase(db *core.Database) int32 {
	nulls := db.Nulls()
	facts := db.Facts()
	k := len(nulls)

	// The facts that hold a null become the kernel's tuples, each
	// argument a null's index in nulls or, until it is ranked, a
	// constant's placeholder; strs holds each argument's constant.
	r.ids, r.cslot, r.strs = r.ids[:0], r.cslot[:0], r.strs[:0]
	r.start, r.args = append(r.start[:0], 0), r.args[:0]
	for i, f := range facts {
		if f.IsGround() {
			continue
		}
		for _, a := range f.Args {
			if a.IsNull() {
				e, _ := slices.BinarySearch(nulls, a.NullID())
				r.args = append(r.args, int32(e))
				r.strs = append(r.strs, "")
			} else {
				r.cslot = append(r.cslot, int32(len(r.args)))
				r.args = append(r.args, 0)
				r.strs = append(r.strs, a.Constant())
			}
		}
		r.ids = append(r.ids, int32(i))
		r.start = append(r.start, int32(len(r.args)))
	}
	// Relations and constants are ranked in sorted string order, which no
	// null renaming can change.
	r.label = resize(r.label, len(r.ids))
	r.perm = identity(resize(r.perm, len(r.ids)))
	rankBy(r.perm, r.label, func(a, b int32) int {
		return strings.Compare(facts[r.ids[a]].Rel, facts[r.ids[b]].Rel)
	})
	rankBy(r.cslot, r.args, func(a, b int32) int {
		return strings.Compare(r.strs[a], r.strs[b])
	})
	for _, s := range r.cslot {
		r.args[s] = ^r.args[s]
	}

	// The initial colour is the rank of the null's sorted domain, and its
	// quoted text is rendered once per distinct domain.
	r.colour = resize(r.colour, k)
	r.buf, r.spans = r.buf[:0], r.spans[:0]
	classes := int32(min(k, 1))
	if db.Uniform() {
		clear(r.colour)
	} else {
		r.doms, r.strs = resize(r.doms, k), r.strs[:0]
		for e, n := range nulls {
			r.doms[e] = r.sorted(db.Domain(n))
		}
		r.perm = identity(resize(r.perm, k))
		classes = rankBy(r.perm, r.colour, func(a, b int32) int {
			x, y := r.doms[a], r.doms[b]
			switch { // a null without a domain sorts first
			case x == nil && y != nil:
				return -1
			case x != nil && y == nil:
				return 1
			}
			return slices.Compare(x, y)
		})
		r.dom = append(r.dom[:0], r.colour...)
		for i, e := range r.perm {
			if i > 0 && r.colour[e] == r.colour[r.perm[i-1]] {
				continue
			}
			lo := len(r.buf)
			r.buf = appendDomain(r.buf, r.doms[e])
			r.spans = append(r.spans, span{lo, len(r.buf)})
		}
	}

	return classes
}

// renderDatabase renders db's canonical form, given each null's
// canonical index.
func (r *refiner) renderDatabase(db *core.Database, canon []int32) string {
	// Render every fact, then sort the renderings.
	facts0 := len(r.spans)
	t := 0
	for _, f := range db.Facts() {
		lo := len(r.buf)
		r.buf = strconv.AppendQuote(r.buf, f.Rel)
		r.buf = append(r.buf, '(')
		ground := f.IsGround()
		for i, a := range f.Args {
			if i > 0 {
				r.buf = append(r.buf, ", "...)
			}
			if a.IsNull() {
				r.buf = append(r.buf, '?')
				r.buf = strconv.AppendInt(r.buf, int64(canon[r.args[r.start[t]+int32(i)]])+1, 10)
			} else {
				r.buf = strconv.AppendQuote(r.buf, a.Constant())
			}
		}
		if !ground {
			t++
		}
		r.buf = append(r.buf, ')')
		r.spans = append(r.spans, span{lo, len(r.buf)})
	}
	factSpans := r.spans[facts0:]
	slices.SortFunc(factSpans, func(a, b span) int {
		return bytes.Compare(r.buf[a.lo:a.hi], r.buf[b.lo:b.hi])
	})

	out := len(r.buf)
	if db.Uniform() {
		r.buf = append(r.buf, "uniform"...)
		r.buf = appendDomain(r.buf, r.sorted(db.UniformDomain()))
		r.buf = append(r.buf, '\n')
	} else {
		byCanon := resize(r.next, len(canon))
		for e, c := range canon {
			byCanon[c] = int32(e)
		}
		for c, e := range byCanon {
			r.buf = append(r.buf, "dom ?"...)
			r.buf = strconv.AppendInt(r.buf, int64(c)+1, 10)
			d := r.spans[r.dom[e]]
			r.buf = append(r.buf, r.buf[d.lo:d.hi]...)
			r.buf = append(r.buf, '\n')
		}
	}
	for i, sp := range factSpans {
		if i > 0 {
			r.buf = append(r.buf, '\n')
		}
		r.buf = append(r.buf, r.buf[sp.lo:sp.hi]...)
	}
	return string(r.buf[out:])
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

	name := func(slot int) string { return "x" + strconv.Itoa(int(canon[r.args[slot]])+1) }
	parts := make([]string, 0, len(atoms)+len(diffs))
	slot := 0
	for _, a := range atoms {
		renamed := make([]string, len(a.Vars))
		for i := range a.Vars {
			renamed[i] = name(slot)
			slot++
		}
		parts = append(parts, a.Rel+"("+strings.Join(renamed, ", ")+")")
	}
	sort.Strings(parts)
	ineqs := make([]string, 0, len(diffs))
	for range diffs {
		lo, hi := slot, slot+1
		if canon[r.args[lo]] > canon[r.args[hi]] {
			lo, hi = hi, lo
		}
		ineqs = append(ineqs, name(lo)+" != "+name(hi))
		slot += 2
	}
	sort.Strings(ineqs)
	return strings.Join(append(parts, ineqs...), " ∧ ")
}
