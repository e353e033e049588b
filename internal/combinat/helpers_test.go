package combinat

import (
	"fmt"
	"math/big"
)

// Stirling2 returns the Stirling number of the second kind S(n, m) =
// surj(n→m)/m!: the number of partitions of an n-set into m nonempty blocks.
func Stirling2(n, m int) *big.Int {
	if m == 0 {
		if n == 0 {
			return big.NewInt(1)
		}
		return big.NewInt(0)
	}
	s := Surjections(n, m)
	return s.Div(s, Factorial(m))
}

// ForEachVector enumerates every integer vector v with 0 ≤ v[i] ≤ bounds[i]
// and calls fn with each; the slice is reused between calls. Enumeration
// stops early if fn returns false.
func ForEachVector(bounds []int, fn func([]int) bool) {
	v := make([]int, len(bounds))
	for {
		if !fn(v) {
			return
		}
		i := len(v) - 1
		for ; i >= 0; i-- {
			v[i]++
			if v[i] <= bounds[i] {
				break
			}
			v[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// ForEachComposition enumerates every vector of parts nonnegative integers
// summing exactly to total and calls fn with each; the slice is reused.
// Enumeration stops early if fn returns false. It returns whether the
// enumeration ran to completion.
func ForEachComposition(total, parts int, fn func([]int) bool) bool {
	if parts == 0 {
		if total == 0 {
			return fn(nil)
		}
		return true
	}
	v := make([]int, parts)
	var rec func(i, rem int) bool
	rec = func(i, rem int) bool {
		if i == parts-1 {
			v[i] = rem
			return fn(v)
		}
		for x := 0; x <= rem; x++ {
			v[i] = x
			if !rec(i+1, rem-x) {
				return false
			}
		}
		return true
	}
	return rec(0, total)
}

// LagrangeCoefficients returns the coefficients (constant term first) of the
// unique polynomial of degree < len(xs) passing through the points
// (xs[i], ys[i]). The xs must be pairwise distinct.
func LagrangeCoefficients(xs, ys []*big.Rat) ([]*big.Rat, error) {
	n := len(xs)
	if n == 0 || len(ys) != n {
		return nil, fmt.Errorf("combinat: need equally many xs and ys, got %d and %d", n, len(ys))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if xs[i].Cmp(xs[j]) == 0 {
				return nil, fmt.Errorf("combinat: duplicate interpolation point %v", xs[i])
			}
		}
	}
	// Solve the Vandermonde system exactly.
	a := make([][]*big.Rat, n)
	for i := 0; i < n; i++ {
		a[i] = make([]*big.Rat, n)
		p := new(big.Rat).SetInt64(1)
		for j := 0; j < n; j++ {
			a[i][j] = new(big.Rat).Set(p)
			p = new(big.Rat).Mul(p, xs[i])
		}
	}
	return SolveRatSystem(a, ys)
}

// EvalPoly evaluates the polynomial with the given coefficients (constant
// term first) at x.
func EvalPoly(coeffs []*big.Rat, x *big.Rat) *big.Rat {
	out := new(big.Rat)
	for i := len(coeffs) - 1; i >= 0; i-- {
		out.Mul(out, x)
		out.Add(out, coeffs[i])
	}
	return out
}

// Factorial returns n!.
func Factorial(n int) *big.Int {
	if n < 0 {
		return big.NewInt(0)
	}
	return new(big.Int).MulRange(1, int64(n))
}

// ForEachSubset enumerates every subset of {0, ..., n-1} as a bitmask.
// Enumeration stops early if fn returns false. n must be at most 30.
func ForEachSubset(n int, fn func(mask uint32) bool) {
	if n > 30 {
		panic(fmt.Sprintf("combinat: ForEachSubset over %d elements", n))
	}
	for mask := uint32(0); mask < 1<<uint(n); mask++ {
		if !fn(mask) {
			return
		}
	}
}
