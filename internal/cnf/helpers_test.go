package cnf

import (
	"fmt"
	"math/big"
)

// CountSatisfying returns the number of satisfying assignments (#3SAT) by
// exhaustive enumeration.
func (f *Formula) CountSatisfying() (*big.Int, error) {
	if f.NumVars > maxBruteVars {
		return nil, fmt.Errorf("cnf: %d variables exceeds brute-force bound %d", f.NumVars, maxBruteVars)
	}
	count := int64(0)
	assign := make([]bool, f.NumVars)
	var rec func(i int)
	rec = func(i int) {
		if i == f.NumVars {
			if f.Eval(assign) {
				count++
			}
			return
		}
		assign[i] = false
		rec(i + 1)
		assign[i] = true
		rec(i + 1)
	}
	rec(0)
	return big.NewInt(count), nil
}

// Satisfiable reports whether the formula has a satisfying assignment.
func (f *Formula) Satisfiable() (bool, error) {
	if f.NumVars > maxBruteVars {
		return false, fmt.Errorf("cnf: %d variables exceeds brute-force bound %d", f.NumVars, maxBruteVars)
	}
	assign := make([]bool, f.NumVars)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == f.NumVars {
			return f.Eval(assign)
		}
		assign[i] = false
		if rec(i + 1) {
			return true
		}
		assign[i] = true
		return rec(i + 1)
	}
	return rec(0), nil
}
