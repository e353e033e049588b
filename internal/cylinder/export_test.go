package cylinder

import "github.com/incompletedb/incompletedb/internal/core"

// Valuation converts the slot valuation vals into a core.Valuation of the
// constrained nulls, for comparing the kernel with Cylinder.Contains.
func (s *Set) Valuation(vals []int32) core.Valuation {
	v := make(core.Valuation, len(vals))
	for sl, c := range vals {
		v[s.nulls[sl]] = s.consts[c]
	}
	return v
}
