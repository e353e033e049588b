package cylinder

import (
	"math/big"
	"math/rand"
	"slices"
	"sort"
)

// Slots returns the number of nulls some cylinder constrains: the length
// of the value arrays SampleValuation fills and CountContaining reads.
func (s *Set) Slots() int { return len(s.nulls) }

// SampleIndex draws a cylinder index with probability proportional to its
// weight. The total weight must be positive.
func (s *Set) SampleIndex(r *rand.Rand) int {
	x := new(big.Int).Rand(r, s.cum[len(s.cum)-1])
	return sort.Search(len(s.cum), func(i int) bool { return s.cum[i].Cmp(x) > 0 })
}

// SampleValuation draws a uniform valuation from cylinder i, restricted to
// the slots: vals[k] becomes the index of the constant the k-th
// constrained null takes. It draws one allowed value per class, in class
// order, then one domain value per slot the cylinder leaves free, in slot
// order. The other nulls of the database lie in every cylinder or in
// none, so they are not drawn. vals must have Slots() entries.
func (s *Set) SampleValuation(i int, r *rand.Rand, vals []int32) {
	for k := range vals {
		vals[k] = -1
	}
	for _, c := range s.Cylinders[i].Classes {
		v := c.allowed[r.Intn(len(c.allowed))]
		for _, sl := range c.slots {
			vals[sl] = v
		}
	}
	for sl, v := range vals {
		if v < 0 {
			dom := s.doms[sl]
			vals[sl] = dom[r.Intn(len(dom))]
		}
	}
}

// CountContaining returns the number of cylinders containing the slot
// valuation vals (at least 1 when it was sampled from one of them).
func (s *Set) CountContaining(vals []int32) int {
	cnt := 0
	for _, cyl := range s.Cylinders {
		if s.containsSlots(cyl, vals) {
			cnt++
		}
	}
	return cnt
}

// containsSlots reports whether cylinder c contains the slot valuation
// vals. The values come from the slot domains, so only a class that
// constrains can exclude one by its allowed list.
func (s *Set) containsSlots(c *Cylinder, vals []int32) bool {
	for i := range c.Classes {
		cl := &c.Classes[i]
		v := vals[cl.slots[0]]
		for _, sl := range cl.slots[1:] {
			if vals[sl] != v {
				return false
			}
		}
		if !cl.constrains(s) {
			continue
		}
		if _, ok := slices.BinarySearch(cl.allowed, v); !ok {
			return false
		}
	}
	return true
}
