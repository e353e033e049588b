package cylinder

import (
	"math/big"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Valuation converts the slot valuation vals into a core.Valuation of the
// constrained nulls, for comparing the kernel with Cylinder.Contains.
func (s *Set) Valuation(vals []int32) core.Valuation {
	v := make(core.Valuation, len(vals))
	for sl, c := range vals {
		v[s.nulls[sl]] = s.consts[c]
	}
	return v
}

// BuildOdometer is the reference construction the indexed join must
// reproduce: it unifies every choice of one fact per atom, Π |R_i| of
// them, in the order of an odometer whose last atom turns fastest, with
// no limit.
func BuildOdometer(db *core.Database, q cq.Query) (*Set, error) {
	disjuncts, err := validDisjuncts(db, q)
	if err != nil {
		return nil, err
	}
	b := newBuilder(db, disjuncts)
	for _, d := range disjuncts {
		if !eligible(db, d) {
			continue
		}
		varIdx := make(map[string]int32)
		atomVars := make([][]int32, len(d.Atoms))
		factsPerAtom := make([][][]int32, len(d.Atoms))
		for i, a := range d.Atoms {
			atomVars[i] = make([]int32, len(a.Vars))
			for p, v := range a.Vars {
				x, ok := varIdx[v]
				if !ok {
					x = int32(len(varIdx))
					varIdx[v] = x
				}
				atomVars[i][p] = x
			}
			factsPerAtom[i] = b.facts[a.Rel]
		}
		choice := make([]int, len(d.Atoms))
		chosen := make([][]int32, len(d.Atoms))
		for {
			for i, c := range choice {
				chosen[i] = factsPerAtom[i][c]
			}
			if cyl := b.unify(len(varIdx), atomVars, chosen); cyl != nil {
				b.set.Cylinders = append(b.set.Cylinders, cyl)
			}
			i := len(choice) - 1
			for ; i >= 0; i-- {
				choice[i]++
				if choice[i] < len(factsPerAtom[i]) {
					break
				}
				choice[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return b.finish(), nil
}

// CumSums returns the running sums SampleIndex searches, cum[j] =
// Σ_{i ≤ j} weight(C_i) / free, and whether they are held in machine
// words.
func (s *Set) CumSums() (cum []*big.Int, words bool) {
	s.weigh()
	if s.cumWords == nil {
		return s.cum, false
	}
	cum = make([]*big.Int, len(s.cumWords))
	for j, w := range s.cumWords {
		cum[j] = new(big.Int).SetUint64(w)
	}
	return cum, true
}

// RandBelow exposes the word-sized draw of SampleIndex.
var RandBelow = randBelow
