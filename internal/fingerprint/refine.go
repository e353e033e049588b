package fingerprint

import (
	"cmp"
	"slices"
	"sync"
)

// refiner is the colour-refinement kernel shared by Database and Query.
// Its elements are the nulls of one database component or the variables
// of a conjunction, numbered 0..k-1 in tie-break order (null ID, variable
// name). Its tuples are the component's facts, or the atoms and
// inequalities of the conjunction. Every buffer is flat and reused: a
// refinement round allocates nothing.
type refiner struct {
	colour []int32 // per element: its current colour, a dense rank
	next   []int32 // per element: the colour the running round assigns

	label []int32 // per tuple: rank of its relation, or symLabel
	start []int32 // per tuple, plus one sentinel: offset of its arguments in args
	args  []int32 // per argument: an element, or ^rank of a constant

	tupleOf  []int32 // per argument: its tuple
	occStart []int32 // per element, plus one sentinel: offset of its occurrences in occ
	occ      []int32 // argument slots, grouped by the element they hold
	order    []int32 // elements, sorted by signature in each round

	// The loaded database (load): every fact that holds a null is a
	// tuple, every null an index into the sorted nulls, and the kernel
	// fields above are filled from these one component at a time.
	ids        []int32 // per tuple: its fact
	ground     []int32 // the ground facts
	gstart     []int32 // per tuple, plus one sentinel: offset of its arguments in gargs
	gargs      []int32 // per argument: a null's index, or ^rank of a constant
	glabel     []int32 // per tuple: rank of its relation
	cslot      []int32 // the slots in gargs that hold a constant
	doms       [][]string
	dom        []int32 // per null: the rank of its sorted domain (doms)
	parent     []int32 // per null: its union-find parent
	comp       []int32 // per null: its component
	tcomp      []int32 // per tuple: its component
	local      []int32 // per null: its element number in its component
	elemStart  []int32 // per component, plus one sentinel: offset of its nulls in elems
	elems      []int32 // nulls, grouped by component
	tupleStart []int32 // per component, plus one sentinel: offset of its tuples in tuples
	tuples     []int32 // tuples, grouped by component

	// Scratch of the front ends. strs first holds each argument's
	// constant or variable name, then a database's sorted copies of its
	// unsorted domains.
	perm    []int32 // tuples or elements being ranked
	strs    []string
	buf     []byte   // rendered domains, facts and forms
	spans   []span   // per distinct domain: its rendering in buf
	lines   []span   // per rendered fact: its bytes in buf
	cspans  []span   // per component: its form in buf
	digests []Digest // per component: its digest
}

// span is a half-open range of refiner.buf.
type span struct{ lo, hi int }

// symLabel labels an inequality: a tuple of two arguments whose ends are
// interchangeable, so an occurrence records only the other end.
const symLabel = -1

// self encodes, in an occurrence, an argument that is the occurring
// element itself. Constants encode below it (as ^rank) and other elements
// above it (as colour+1).
const self = 0

var refiners = sync.Pool{New: func() any { return new(refiner) }}

// release returns r to the pool, dropping its references to the caller's
// strings so a pooled refiner does not keep a database alive.
func (r *refiner) release() {
	clear(r.strs[:cap(r.strs)])
	clear(r.doms[:cap(r.doms)])
	refiners.Put(r)
}

// resize returns s with length n, reusing its storage when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// identity fills s with 0..len(s)-1 and returns it.
func identity(s []int32) []int32 {
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// rankBy sets dst[p] for every p in perm to the dense rank of p under
// compare: equal items share a rank, and ranks follow the sorted order.
// It sorts perm and returns the number of ranks.
func rankBy(perm []int32, dst []int32, compare func(a, b int32) int) int32 {
	if len(perm) == 0 {
		return 0
	}
	slices.SortFunc(perm, compare)
	rank := int32(0)
	dst[perm[0]] = 0
	for i := 1; i < len(perm); i++ {
		if compare(perm[i-1], perm[i]) != 0 {
			rank++
		}
		dst[perm[i]] = rank
	}
	return rank + 1
}

// enc encodes the argument at slot for an occurrence of element e.
func (r *refiner) enc(slot int32, e int32) int32 {
	v := r.args[slot]
	switch {
	case v < 0:
		return v
	case v == e:
		return self
	default:
		return r.colour[v] + 1
	}
}

// cmpOcc orders two occurrences, given as argument slots, by relation
// rank, position and then each argument's encoding relative to the
// occurring element. Equal labels imply equal arity.
func (r *refiner) cmpOcc(x, y int32) int {
	tx, ty := r.tupleOf[x], r.tupleOf[y]
	if c := cmp.Compare(r.label[tx], r.label[ty]); c != 0 {
		return c
	}
	sx, sy := r.start[tx], r.start[ty]
	ex, ey := r.args[x], r.args[y]
	if r.label[tx] == symLabel {
		return cmp.Compare(r.enc(2*sx+1-x, ex), r.enc(2*sy+1-y, ey))
	}
	if c := cmp.Compare(x-sx, y-sy); c != 0 {
		return c
	}
	for i := int32(0); i < r.start[tx+1]-sx; i++ {
		if c := cmp.Compare(r.enc(sx+i, ex), r.enc(sy+i, ey)); c != 0 {
			return c
		}
	}
	return 0
}

// cmpElem orders two elements by signature: colour, then the sorted list
// of occurrences.
func (r *refiner) cmpElem(a, b int32) int {
	if c := cmp.Compare(r.colour[a], r.colour[b]); c != 0 {
		return c
	}
	oa := r.occ[r.occStart[a]:r.occStart[a+1]]
	ob := r.occ[r.occStart[b]:r.occStart[b+1]]
	for i := 0; i < len(oa) && i < len(ob); i++ {
		if c := r.cmpOcc(oa[i], ob[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(oa), len(ob))
}

// refine refines the initial colouring, which holds classes dense ranks,
// until a round no longer splits a class, and returns each element's
// canonical index: elements ordered by stable colour, ties by element
// number. A round sorts the elements by signature and numbers the
// distinct signatures in order; colour leads the signature, so a round
// only splits classes and never reorders them, and at most k-1 rounds
// split one. The returned slice is
// r.order, valid until the refiner is reused; r.next is free scratch.
func (r *refiner) refine(classes int32) []int32 {
	k := int32(len(r.colour))
	r.next = resize(r.next, int(k))
	r.tupleOf = resize(r.tupleOf, len(r.args))
	r.occStart = resize(r.occStart, int(k)+1)
	clear(r.occStart)
	for t := 0; t+1 < len(r.start); t++ {
		for s := r.start[t]; s < r.start[t+1]; s++ {
			r.tupleOf[s] = int32(t)
			if v := r.args[s]; v >= 0 {
				r.occStart[v+1]++
			}
		}
	}
	for e := int32(0); e < k; e++ {
		r.occStart[e+1] += r.occStart[e]
	}
	r.occ = resize(r.occ, int(r.occStart[k]))
	fill := r.next // per element: next free occurrence slot
	copy(fill, r.occStart[:k])
	for s, v := range r.args {
		if v >= 0 {
			r.occ[fill[v]] = int32(s)
			fill[v]++
		}
	}

	r.order = identity(resize(r.order, int(k)))
	for classes < k {
		for e := int32(0); e < k; e++ {
			sortOcc(r.occ[r.occStart[e]:r.occStart[e+1]], r.cmpOcc)
		}
		n := rankBy(r.order, r.next, r.cmpElem)
		r.colour, r.next = r.next, r.colour
		if n == classes {
			break
		}
		classes = n
	}

	// Counting sort by colour, stable in element number.
	pos := r.next
	clear(pos)
	for _, c := range r.colour {
		if c+1 < k {
			pos[c+1]++
		}
	}
	for c := int32(1); c < k; c++ {
		pos[c] += pos[c-1]
	}
	for e, c := range r.colour {
		r.order[e] = pos[c]
		pos[c]++
	}
	return r.order
}

// sortOcc sorts an element's occurrences. Most elements have a handful,
// already sorted by the previous round, so insertion sort does.
func sortOcc(o []int32, compare func(a, b int32) int) {
	if len(o) > 12 {
		slices.SortFunc(o, compare)
		return
	}
	for i := 1; i < len(o); i++ {
		for j := i; j > 0 && compare(o[j-1], o[j]) > 0; j-- {
			o[j-1], o[j] = o[j], o[j-1]
		}
	}
}
