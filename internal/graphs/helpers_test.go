package graphs

import (
	"fmt"
	"math/big"
	"sort"
)

// CountMatchings returns the number of matchings (edge subsets with all
// degrees ≤ 1, including the empty one) of a bipartite graph.
func CountMatchings(b *Bipartite) (*big.Int, error) {
	return countDegreeConstrained(b, func(dl, dr []int) bool {
		return maxInt(dl) <= 1 && maxInt(dr) <= 1
	})
}

// CountPerfectMatchings returns the number of perfect matchings (all
// degrees exactly 1).
func CountPerfectMatchings(b *Bipartite) (*big.Int, error) {
	return countDegreeConstrained(b, func(dl, dr []int) bool {
		return minInt(dl) == 1 && maxInt(dl) == 1 && minInt(dr) == 1 && maxInt(dr) == 1
	})
}

// CountEdgeCovers returns the number of edge covers (all degrees ≥ 1).
func CountEdgeCovers(b *Bipartite) (*big.Int, error) {
	return countDegreeConstrained(b, func(dl, dr []int) bool {
		return minInt(dl) >= 1 && minInt(dr) >= 1
	})
}

func countDegreeConstrained(b *Bipartite, ok func(dl, dr []int) bool) (*big.Int, error) {
	m := len(b.edges)
	if m > 24 {
		return nil, fmt.Errorf("graphs: %d edges exceed the brute-force bound", m)
	}
	count := int64(0)
	dl := make([]int, b.NL)
	dr := make([]int, b.NR)
	for mask := 0; mask < 1<<uint(m); mask++ {
		for i := range dl {
			dl[i] = 0
		}
		for i := range dr {
			dr[i] = 0
		}
		for e := 0; e < m; e++ {
			if mask&(1<<uint(e)) != 0 {
				dl[b.edges[e][0]]++
				dr[b.edges[e][1]]++
			}
		}
		if ok(dl, dr) {
			count++
		}
	}
	return big.NewInt(count), nil
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// HasOrientationMaxOutdegreeOne reports whether g admits an orientation in
// which every node has outdegree at most one, by brute force over all 2^m
// orientations. By Lemma B.4 this holds iff g is a pseudoforest; the
// equivalence is exercised in the tests.
func HasOrientationMaxOutdegreeOne(g *Graph) (bool, error) {
	m := g.M()
	if m > 20 {
		return false, fmt.Errorf("graphs: orientation search on %d edges too large", m)
	}
	edges := g.Edges()
	outdeg := make([]int, g.n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == m {
			return true
		}
		for _, from := range []int{0, 1} {
			src := edges[i][from]
			if outdeg[src] == 0 {
				outdeg[src]++
				if rec(i + 1) {
					return true
				}
				outdeg[src]--
			}
		}
		return false
	}
	return rec(0), nil
}

// AllEdgeIndices returns [0, 1, ..., M-1], the full edge subset.
func AllEdgeIndices(g *Graph) []int {
	out := make([]int, g.M())
	for i := range out {
		out[i] = i
	}
	return out
}

// IsRegular reports whether every node has degree d.
func (m *Multigraph) IsRegular(d int) bool {
	deg := make([]int, m.N)
	for _, e := range m.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for _, x := range deg {
		if x != d {
			return false
		}
	}
	return true
}

// CountNonAvoidingAssignments returns the number of assignments that are
// NOT avoiding; the reduction of Proposition 3.5 produces exactly this
// quantity as #ValCd(R(x) ∧ S(x)).
func (m *Multigraph) CountNonAvoidingAssignments() (*big.Int, error) {
	all, err := m.countAssignments(false)
	if err != nil {
		return nil, err
	}
	av, err := m.countAssignments(true)
	if err != nil {
		return nil, err
	}
	return all.Sub(all, av), nil
}

// ConnectedComponents returns the node sets of the connected components.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		var comp []int
		stack := []int{v}
		seen[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, x)
			for u := range g.adj[x] {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
