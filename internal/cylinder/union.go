package cylinder

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// MaxUnionCylinders is the one bound on inclusion–exclusion: the planner
// takes the cylinder route for 1 to MaxUnionCylinders cylinders and
// sweeps above it, and UnionCountParallel refuses larger sets. The walk
// is exponential in the number of cylinders: the 2^18 terms of an
// 18-cycle whose intersections are never empty take about 27 ms on one
// worker of a 2-core Xeon (BenchmarkCylinderUnionCycle/n=18), and each
// further cylinder doubles both that time and the walk state a worker
// holds.
const MaxUnionCylinders = 18

// cancelCheckMasks is the number of subset terms visited between polls of
// the cancellation context.
const cancelCheckMasks = 1024

// tasksPerWorker is how many prefix tasks the parallel walk makes per
// worker, so that subtrees of uneven size still spread evenly.
const tasksPerWorker = 8

// UnionCount computes |∪_j C_j| — the exact number of satisfying
// valuations — by inclusion–exclusion over the cylinders: the SpanL
// "distinct witnesses" semantics of Proposition 5.2 made executable. It is
// the planner's exact route for a #Val with few cylinders, exponential in
// their number and guarded accordingly.
func (s *Set) UnionCount() (*big.Int, error) {
	return s.UnionCountContext(context.Background())
}

// UnionCountContext is UnionCount with cancellation, on one worker.
func (s *Set) UnionCountContext(ctx context.Context) (*big.Int, error) {
	return s.UnionCountParallel(ctx, 1)
}

// UnionCountParallel computes UnionCount on workers goroutines. The walk
// visits the non-empty subsets of cylinders depth-first, in index order,
// carrying the union–find state of each subset's intersection, so a term
// costs one state copy plus the new cylinder's classes. A subset whose
// intersection is empty prunes its subtree: every superset is empty too.
// Each term's product and the signed sum stay in machine words until
// they would overflow, then continue in big.Int.
//
// The walk runs on a kernel compiled for the call: bitmasks over only the
// constants an intersection can keep. A worker holds one state per depth,
// (m+1) × slots × (⌈U/64⌉ + 2) words, with U at most the total length of
// the constraining classes' allowed lists (see kernel).
//
// The parallel walk shards by the include/exclude choices of a prefix of
// the cylinders and sums the tasks in task order; the sums are exact, so
// the count is identical at every worker count. The walk polls ctx every
// cancelCheckMasks terms and returns its error shortly after it is done.
func (s *Set) UnionCountParallel(ctx context.Context, workers int) (*big.Int, error) {
	m := len(s.Cylinders)
	if m > MaxUnionCylinders {
		return nil, fmt.Errorf("cylinder: inclusion–exclusion over %d cylinders is too large (limit %d)", m, MaxUnionCylinders)
	}
	k := s.compile()
	prefix := 0
	for workers > 1 && prefix < m && 1<<prefix < tasksPerWorker*workers {
		prefix++
	}
	tasks := 1 << prefix
	workers = max(1, min(workers, tasks))
	sums := make([]*big.Int, tasks)
	errs := make([]error, workers)
	var next atomic.Int64
	run := func(w int) {
		wk := k.newWalker(ctx)
		for {
			t := int(next.Add(1) - 1)
			if t >= tasks {
				return
			}
			// Each task sums into its own accumulator and stores it once,
			// so workers never write to shared memory while they walk.
			var acc sum
			if err := wk.task(t, prefix, &acc); err != nil {
				errs[w] = err
				return
			}
			sums[t] = acc.int()
		}
	}
	if workers == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := new(big.Int)
	for _, t := range sums {
		total.Add(total, t)
	}
	total.Mul(total, k.factor.int())
	return total.Mul(total, s.free), ctx.Err()
}

// kernel is a Set compiled for the inclusion–exclusion walk, in bitmasks
// over only the constants an intersection can keep.
//
// A class constrains when it has two or more nulls or allows less than
// its one null's domain; any other class is the whole of its slot's
// domain and adds nothing. The kernel's slots are the Set's slots some
// constraining class touches, in slot order; the domain sizes of the rest
// are the same in every term and fold into factor. The masks number the
// constants some constraining class allows. A slot keeps the rest of its
// domain, spare, only until a constraint touches it: that constraint's
// allowed values are all numbered. So a mask spans ⌈U/64⌉ words, where U
// is at most the total length of the constraining classes' allowed lists.
type kernel struct {
	factor  product  // Π |dom| over the Set's slots outside the kernel
	words   int      // uint64 words per mask
	doms    []uint64 // slot s's numbered domain constants: doms[s*words:][:words]
	spare   []uint64 // slot s's other domain constants, counted
	classes [][]kclass
}

// kclass is a constraining class of a cylinder.
type kclass struct {
	slots []int32 // kernel slots, ascending
	mask  []uint64
}

// compile builds the kernel of s: it numbers the constants, then lays out
// the kernel slots' domains and the constraining classes as masks.
func (s *Set) compile() *kernel {
	k := &kernel{factor: newProduct(), classes: make([][]kclass, len(s.Cylinders))}
	slotOf := make([]int32, len(s.nulls))
	for sl := range slotOf {
		slotOf[sl] = -1
	}
	bit := make(map[int32]int32)
	for _, cyl := range s.Cylinders {
		for i := range cyl.Classes {
			c := &cyl.Classes[i]
			if !c.constrains(s) {
				continue
			}
			for _, sl := range c.slots {
				slotOf[sl] = 0
			}
			for _, a := range c.allowed {
				bit[a] = 0
			}
		}
	}
	consts := make([]int32, 0, len(bit))
	for a := range bit {
		consts = append(consts, a)
	}
	slices.Sort(consts)
	for i, a := range consts {
		bit[a] = int32(i)
	}
	k.words = (len(consts) + 63) / 64
	row := func(list []int32) (mask []uint64, spare uint64) {
		mask = make([]uint64, k.words)
		for _, a := range list {
			if i, ok := bit[a]; ok {
				mask[i/64] |= 1 << (i % 64)
			} else {
				spare++
			}
		}
		return mask, spare
	}
	for sl, dom := range s.doms {
		if slotOf[sl] < 0 {
			k.factor.mul(uint64(len(dom)))
			continue
		}
		slotOf[sl] = int32(len(k.spare))
		mask, spare := row(dom)
		k.doms = append(k.doms, mask...)
		k.spare = append(k.spare, spare)
	}
	for j, cyl := range s.Cylinders {
		for i := range cyl.Classes {
			c := &cyl.Classes[i]
			if !c.constrains(s) {
				continue
			}
			kc := kclass{slots: make([]int32, len(c.slots))}
			for x, sl := range c.slots {
				kc.slots[x] = slotOf[sl]
			}
			kc.mask, _ = row(c.allowed)
			k.classes[j] = append(k.classes[j], kc)
		}
	}
	return k
}

// walker is one goroutine's inclusion–exclusion walk. Depth d holds the
// intersection of a subset of d cylinders: a union–find forest over the
// kernel's slots and, for each root, the values its class may take.
type walker struct {
	k       *kernel
	ctx     context.Context
	parent  [][]int32
	mask    [][]uint64
	spare   [][]uint64
	visited int
}

func (k *kernel) newWalker(ctx context.Context) *walker {
	m, n, words := len(k.classes), len(k.spare), k.words
	w := &walker{k: k, ctx: ctx, parent: make([][]int32, m+1), mask: make([][]uint64, m+1), spare: make([][]uint64, m+1)}
	parents := make([]int32, (m+1)*n)
	masks := make([]uint64, (m+1)*n*words)
	spares := make([]uint64, (m+1)*n)
	for d := range w.parent {
		w.parent[d] = parents[d*n : (d+1)*n]
		w.mask[d] = masks[d*n*words : (d+1)*n*words]
		w.spare[d] = spares[d*n : (d+1)*n]
	}
	return w
}

// task adds to acc the terms of the subsets whose choices over the first
// prefix cylinders are the bits of t.
func (w *walker) task(t, prefix int, acc *sum) error {
	for sl := range w.parent[0] {
		w.parent[0][sl] = int32(sl)
	}
	copy(w.mask[0], w.k.doms)
	copy(w.spare[0], w.k.spare)
	d := 0
	for j := 0; j < prefix; j++ {
		if t>>j&1 == 0 {
			continue
		}
		if !w.extend(d, j) {
			return nil
		}
		d++
	}
	if d > 0 {
		w.term(d, acc)
	}
	return w.walk(d, prefix, acc)
}

// walk adds to acc the terms of every subset that extends depth d's by
// cylinders from, from+1, ….
func (w *walker) walk(d, from int, acc *sum) error {
	for j := from; j < len(w.k.classes); j++ {
		if w.visited%cancelCheckMasks == 0 {
			if err := w.ctx.Err(); err != nil {
				return err
			}
		}
		w.visited++
		if !w.extend(d, j) {
			continue
		}
		w.term(d+1, acc)
		if err := w.walk(d+1, j+1, acc); err != nil {
			return err
		}
	}
	return nil
}

// extend sets depth d+1 to the intersection of depth d with cylinder j
// and reports whether it is non-empty.
func (w *walker) extend(d, j int) bool {
	parent, mask, spare, words := w.parent[d+1], w.mask[d+1], w.spare[d+1], w.k.words
	copy(parent, w.parent[d])
	copy(mask, w.mask[d])
	copy(spare, w.spare[d])
	for _, c := range w.k.classes[j] {
		r := find(parent, c.slots[0])
		rm := mask[int(r)*words:][:words]
		for _, sl := range c.slots[1:] {
			if r2 := find(parent, sl); r2 != r {
				parent[r2] = r
				and(rm, mask[int(r2)*words:][:words])
			}
		}
		and(rm, c.mask)
		spare[r] = 0
		if popcount(rm) == 0 {
			return false
		}
	}
	return true
}

func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// term adds depth d's signed term to acc: (−1)^(d+1) Π |root's values|.
// The kernel's and the Set's factors multiply the whole sum once, at the
// end.
func (w *walker) term(d int, acc *sum) {
	parent, mask, spare, words := w.parent[d], w.mask[d], w.spare[d], w.k.words
	p := newProduct()
	for sl, r := range parent {
		if int(r) == sl {
			p.mul(popcount(mask[sl*words:][:words]) + spare[sl])
		}
	}
	if p.big == nil {
		acc.add(d%2 == 0, p.word)
	} else {
		acc.addBig(d%2 == 0, p.int())
	}
}

func and(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

func popcount(m []uint64) uint64 {
	n := 0
	for _, x := range m {
		n += bits.OnesCount64(x)
	}
	return uint64(n)
}

// sum is a signed running total: an int64 that spills into a big.Int
// before it could wrap.
type sum struct {
	word int64
	big  big.Int
}

func (s *sum) add(neg bool, x uint64) {
	if x > math.MaxInt64 {
		s.addBig(neg, new(big.Int).SetUint64(x))
		return
	}
	v := int64(x)
	if neg {
		v = -v
	}
	if t := s.word + v; (v >= 0) == (t >= s.word) {
		s.word = t
		return
	}
	s.big.Add(&s.big, big.NewInt(s.word))
	s.word = v
}

func (s *sum) addBig(neg bool, x *big.Int) {
	if neg {
		s.big.Sub(&s.big, x)
	} else {
		s.big.Add(&s.big, x)
	}
}

func (s *sum) int() *big.Int { return new(big.Int).Add(&s.big, big.NewInt(s.word)) }
