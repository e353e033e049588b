package graphs

import (
	"fmt"
	"math/big"
	"math/rand"
)

// This file implements the pseudoforest machinery of Appendix B.4/B.5:
// counting edge subsets inducing pseudoforests (#PF, the number of
// independent sets of the bicircular matroid B(G)), the bicircular rank,
// the Tutte polynomial specialization T(B(G); x, 1), and the k-stretch
// transformation used in the interpolation argument.

// IsPseudoforestSubset reports whether the subgraph G[S] induced by the edge
// subset S (given as edge indices into g.Edges()) is a pseudoforest: every
// connected component contains at most one cycle, equivalently every
// component has no more edges than nodes.
func IsPseudoforestSubset(g *Graph, subset []int) bool {
	// Union-find over nodes, tracking edges per component.
	parent := make([]int, g.n)
	compEdges := make([]int, g.n)
	compNodes := make([]int, g.n)
	for i := range parent {
		parent[i] = i
		compNodes[i] = 1
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	edges := g.Edges()
	for _, ei := range subset {
		e := edges[ei]
		ru, rv := find(e[0]), find(e[1])
		if ru == rv {
			compEdges[ru]++
		} else {
			parent[ru] = rv
			compEdges[rv] += compEdges[ru] + 1
			compNodes[rv] += compNodes[ru]
		}
		r := find(e[0])
		if compEdges[r] > compNodes[r] {
			return false
		}
	}
	return true
}

// CountPseudoforestSubsets returns #PF(g): the number of edge subsets S ⊆ E
// such that G[S] is a pseudoforest. This equals the number of independent
// sets of the bicircular matroid B(G), i.e. T(B(G); 2, 1).
func CountPseudoforestSubsets(g *Graph) (*big.Int, error) {
	counts, err := PseudoforestSubsetsBySize(g)
	if err != nil {
		return nil, err
	}
	total := big.NewInt(0)
	for _, c := range counts {
		total.Add(total, c)
	}
	return total, nil
}

// PseudoforestSubsetsBySize returns a slice counts where counts[s] is the
// number of pseudoforest edge subsets of size s.
func PseudoforestSubsetsBySize(g *Graph) ([]*big.Int, error) {
	m := g.M()
	if m > 22 {
		return nil, fmt.Errorf("graphs: PseudoforestSubsetsBySize on %d edges too large", m)
	}
	counts := make([]*big.Int, m+1)
	for i := range counts {
		counts[i] = big.NewInt(0)
	}
	one := big.NewInt(1)
	subset := make([]int, 0, m)
	// Depth-first over edges with pseudoforest pruning (the property is
	// closed under subsets, so pruning is sound).
	var rec func(next int)
	rec = func(next int) {
		counts[len(subset)].Add(counts[len(subset)], one)
		for e := next; e < m; e++ {
			subset = append(subset, e)
			if IsPseudoforestSubset(g, subset) {
				rec(e + 1)
			}
			subset = subset[:len(subset)-1]
		}
	}
	rec(0)
	return counts, nil
}

// BicircularRank returns the rank of the bicircular matroid B(G): the size
// of a maximum pseudoforest edge subset, computed greedily (valid because
// B(G) is a matroid).
func BicircularRank(g *Graph) int {
	var subset []int
	for e := 0; e < g.M(); e++ {
		subset = append(subset, e)
		if !IsPseudoforestSubset(g, subset) {
			subset = subset[:len(subset)-1]
		}
	}
	return len(subset)
}

// BicircularTutteX1 evaluates T(B(G); x, 1) = Σ_{A pseudoforest} (x−1)^(rk−|A|)
// exactly over the rationals.
func BicircularTutteX1(g *Graph, x *big.Rat) (*big.Rat, error) {
	counts, err := PseudoforestSubsetsBySize(g)
	if err != nil {
		return nil, err
	}
	rk := BicircularRank(g)
	xm1 := new(big.Rat).Sub(x, big.NewRat(1, 1))
	out := new(big.Rat)
	for s, c := range counts {
		if c.Sign() == 0 {
			continue
		}
		term := new(big.Rat).SetInt(c)
		p := new(big.Rat).SetInt64(1)
		for i := 0; i < rk-s; i++ {
			p.Mul(p, xm1)
		}
		term.Mul(term, p)
		out.Add(out, term)
	}
	return out, nil
}

// Stretch returns the k-stretch of g (Definition B.11): every edge is
// replaced by a path of length k through k−1 fresh nodes. Stretch(g, 1)
// is g itself (a copy). For even k the stretch is bipartite.
func Stretch(g *Graph, k int) (*Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("graphs: stretch factor %d < 1", k)
	}
	out := NewGraph(g.n + (k-1)*g.M())
	next := g.n
	for _, e := range g.Edges() {
		prev := e[0]
		for i := 0; i < k-1; i++ {
			out.MustAddEdge(prev, next)
			prev = next
			next++
		}
		out.MustAddEdge(prev, e[1])
	}
	return out, nil
}

// RandomThreeRegularMultigraph returns a random 3-regular multigraph on n
// nodes (n even) built from a random perfect matching union of three
// matchings; it may contain parallel edges but no self-loops. Used to
// exercise the #Avoidance machinery on its hard instance class.
func RandomThreeRegularMultigraph(n int, r *rand.Rand) (*Multigraph, error) {
	if n%2 != 0 || n <= 0 {
		return nil, fmt.Errorf("graphs: 3-regular multigraph needs positive even n, got %d", n)
	}
	m := NewMultigraph(n)
	for round := 0; round < 3; round++ {
		perm := r.Perm(n)
		for i := 0; i < n; i += 2 {
			m.MustAddEdge(perm[i], perm[i+1])
		}
	}
	return m, nil
}
