package main

import (
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{name: "latency_norm", better: "lower", bound: 0.15}
	higher := metricSpec{name: "ops_per_s", better: "higher", bound: 0.15}
	base := []float64{100, 101, 99, 100, 102}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		m    metricSpec
		b    []float64
		want string
	}{
		{lower, scale(1.05), "within bound"},
		{lower, scale(1.3), "worse"},
		{lower, scale(0.7), "better"},
		{higher, scale(1.3), "better"},
		{higher, scale(0.7), "worse"},
		{lower, []float64{50, 100, 150, 100, 120}, "unresolved"},
		{lower, []float64{10, 20, 30, 40, 50}, "better"}, // wide, but every run beats every base run
	} {
		if got := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("%s %v: verdict %q, want %q", c.m.name, c.b, got, c.want)
		}
	}
}
