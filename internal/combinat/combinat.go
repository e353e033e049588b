// Package combinat provides the exact combinatorics used by the counting
// algorithms: big-integer binomials, multinomials, surjection counts,
// integer powers, enumeration helpers, and exact rational linear algebra
// (Gaussian elimination and Lagrange interpolation) for the
// interpolation-based reductions.
package combinat

import (
	"fmt"
	"math/big"
	"sync"
)

// Binomial returns C(n, k), and 0 when k < 0 or k > n.
func Binomial(n, k int) *big.Int {
	if k < 0 || n < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// Multinomial returns the multinomial coefficient n! / (p1!·…·pk!·r!) where
// r = n − Σ parts is the implicit remainder bucket. It returns 0 if any part
// is negative or the parts sum to more than n.
func Multinomial(n int, parts ...int) *big.Int {
	sum := 0
	for _, p := range parts {
		if p < 0 {
			return big.NewInt(0)
		}
		sum += p
	}
	if sum > n {
		return big.NewInt(0)
	}
	out := big.NewInt(1)
	rem := n
	for _, p := range parts {
		out.Mul(out, Binomial(rem, p))
		rem -= p
	}
	return out
}

// Pow returns base^exp for exp ≥ 0 (and 0 for exp < 0).
func Pow(base *big.Int, exp int) *big.Int {
	if exp < 0 {
		return big.NewInt(0)
	}
	return new(big.Int).Exp(base, big.NewInt(int64(exp)), nil)
}

// PowInt returns base^exp for exp ≥ 0, with int64 base.
func PowInt(base int64, exp int) *big.Int {
	return Pow(big.NewInt(base), exp)
}

var (
	surjMu    sync.Mutex
	surjCache = map[[2]int]*big.Int{}
)

// Surjections returns surj(n→m), the number of surjective functions from an
// n-element set onto an m-element set: Σ_{i=0..m} (−1)^i · C(m,i) · (m−i)^n.
// By convention surj(0→0) = 1, and surj(n→m) = 0 when m > n or exactly one
// of n, m is zero.
func Surjections(n, m int) *big.Int {
	if n < 0 || m < 0 || m > n {
		return big.NewInt(0)
	}
	if m == 0 {
		if n == 0 {
			return big.NewInt(1)
		}
		return big.NewInt(0)
	}
	key := [2]int{n, m}
	surjMu.Lock()
	if v, ok := surjCache[key]; ok {
		surjMu.Unlock()
		return new(big.Int).Set(v)
	}
	surjMu.Unlock()
	out := big.NewInt(0)
	term := new(big.Int)
	for i := 0; i <= m; i++ {
		term.Mul(Binomial(m, i), PowInt(int64(m-i), n))
		if i%2 == 0 {
			out.Add(out, term)
		} else {
			out.Sub(out, term)
		}
	}
	surjMu.Lock()
	surjCache[key] = new(big.Int).Set(out)
	surjMu.Unlock()
	return out
}

// SolveRatSystem solves the linear system A·x = b over the rationals with
// exact Gaussian elimination and partial (nonzero) pivoting. A must be
// square and nonsingular; the inputs are not modified.
func SolveRatSystem(a [][]*big.Rat, b []*big.Rat) ([]*big.Rat, error) {
	n := len(a)
	if n == 0 {
		return nil, fmt.Errorf("combinat: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("combinat: dimension mismatch: %d rows, %d rhs", n, len(b))
	}
	// Working copies.
	m := make([][]*big.Rat, n)
	for i := range m {
		if len(a[i]) != n {
			return nil, fmt.Errorf("combinat: matrix is not square at row %d", i)
		}
		m[i] = make([]*big.Rat, n+1)
		for j := 0; j < n; j++ {
			m[i][j] = new(big.Rat).Set(a[i][j])
		}
		m[i][n] = new(big.Rat).Set(b[i])
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("combinat: singular matrix (column %d)", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := new(big.Rat).Inv(m[col][col])
		for j := col; j <= n; j++ {
			m[col][j].Mul(m[col][j], inv)
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(m[r][col])
			for j := col; j <= n; j++ {
				t := new(big.Rat).Mul(f, m[col][j])
				m[r][j].Sub(m[r][j], t)
			}
		}
	}
	x := make([]*big.Rat, n)
	for i := range x {
		x[i] = m[i][n]
	}
	return x, nil
}

// RatIsInt reports whether r is an integer and returns it.
func RatIsInt(r *big.Rat) (*big.Int, bool) {
	if !r.IsInt() {
		return nil, false
	}
	return new(big.Int).Set(r.Num()), true
}
