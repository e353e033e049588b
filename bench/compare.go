package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runFile is what -json writes: every run of every workload.
type runFile struct {
	Seed    int64                `json:"seed"`
	Seconds float64              `json:"seconds"`
	Runs    []map[string]*result `json:"runs"`
}

func readRunFile(path string) (*runFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// minCompareRuns is the fewest runs a side of a comparison may have.
const minCompareRuns = 5

// compare prints, for every workload and end-to-end metric, both sides'
// median and quartiles and a verdict against the metric's bound.
func compare(w io.Writer, a, b *runFile) error {
	fmt.Fprintf(w, "%-12s %-16s %-30s %-30s %8s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			av, bv := a.values(wl.name, m.name), b.values(wl.name, m.name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			if len(av) < minCompareRuns || len(bv) < minCompareRuns {
				return fmt.Errorf("%s %s: %d and %d runs, need at least %d on each side", wl.name, m.name, len(av), len(bv), minCompareRuns)
			}
			qa, qb := quartiles(av), quartiles(bv)
			fmt.Fprintf(w, "%-12s %-16s %-30s %-30s %+7.1f%%  %s\n", wl.name, m.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", qa[1], qa[0], qa[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", qb[1], qb[0], qb[2]),
				100*div(qb[1]-qa[1], qa[1]), verdict(m, av, bv))
		}
	}
	return nil
}

func (f *runFile) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range f.Runs {
		if r, ok := run[workload]; ok {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// verdict judges B against A. A side whose quartile spread is wider than
// the bound cannot resolve a change that small: unresolved, unless every
// run of B reads better than every run of A. Otherwise B is worse or
// better when its median moved past the bound.
func verdict(m metricSpec, a, b []float64) string {
	qa, qb := quartiles(a), quartiles(b)
	// worseBy is how far y is worse than x, as a share of x.
	worseBy := func(x, y float64) float64 {
		if m.better == "lower" {
			return div(y-x, x)
		}
		return div(x-y, x)
	}
	if spread(qa) > m.bound || spread(qb) > m.bound {
		for _, x := range a {
			for _, y := range b {
				if worseBy(x, y) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	switch d := worseBy(qa[1], qb[1]); {
	case d > m.bound:
		return "worse"
	case d < -m.bound:
		return "better"
	default:
		return "within bound"
	}
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 { return div(q[2]-q[0], q[1]) }

// quartiles returns the first quartile, the median and the third quartile
// of xs (at least two values) by the method of Python's
// statistics.quantiles(xs, n=4), the default "exclusive" one.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}
