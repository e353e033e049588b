package graphs

import (
	"fmt"
	"math/big"
)

// Multigraph is a finite undirected multigraph without self-loops: parallel
// edges between two nodes are allowed and carry distinct identities (their
// index in Edges). It is the input of the #Avoidance problem (Appendix A.2
// of the paper).
type Multigraph struct {
	N     int
	Edges [][2]int
}

// NewMultigraph returns an edgeless multigraph on n nodes.
func NewMultigraph(n int) *Multigraph {
	if n < 0 {
		panic("graphs: negative node count")
	}
	return &Multigraph{N: n}
}

// AddEdge appends an edge between u and v (parallel edges allowed).
func (m *Multigraph) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= m.N || v >= m.N {
		return fmt.Errorf("graphs: multigraph edge {%d,%d} out of range", u, v)
	}
	if u == v {
		return fmt.Errorf("graphs: self-loop at %d", u)
	}
	m.Edges = append(m.Edges, [2]int{u, v})
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (m *Multigraph) MustAddEdge(u, v int) {
	if err := m.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// IncidentEdges returns the indices of the edges incident to v, in order.
func (m *Multigraph) IncidentEdges(v int) []int {
	var out []int
	for i, e := range m.Edges {
		if e[0] == v || e[1] == v {
			out = append(out, i)
		}
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

// CountAvoidingAssignments returns the number of avoiding assignments of m:
// maps μ assigning to each node an incident edge such that no two nodes are
// assigned the same edge (Definition A.1). Nodes of degree zero make the
// count zero, as they admit no assignment at all.
func (m *Multigraph) CountAvoidingAssignments() (*big.Int, error) {
	return m.countAssignments(true)
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

func (m *Multigraph) countAssignments(avoidingOnly bool) (*big.Int, error) {
	inc := make([][]int, m.N)
	total := 1.0
	for v := 0; v < m.N; v++ {
		inc[v] = m.IncidentEdges(v)
		total *= float64(len(inc[v]))
		if total > 1e8 {
			return nil, fmt.Errorf("graphs: assignment space too large for brute force")
		}
	}
	chosen := make([]int, m.N) // chosen[v] = edge index
	usedEdge := make(map[int]int, m.N)
	count := big.NewInt(0)
	one := big.NewInt(1)
	var rec func(v int)
	rec = func(v int) {
		if v == m.N {
			count.Add(count, one)
			return
		}
		for _, e := range inc[v] {
			if avoidingOnly && usedEdge[e] > 0 {
				continue
			}
			chosen[v] = e
			usedEdge[e]++
			rec(v + 1)
			usedEdge[e]--
		}
	}
	rec(0)
	_ = chosen
	return count, nil
}

// Subdivide returns the bipartite graph G' obtained by placing a fresh node
// in the middle of every edge (the construction of Proposition A.8): node v
// of m stays node v; edge e becomes node m.N + e. When m is 3-regular the
// result is a 2-3-regular bipartite simple graph and
// #Avoidance(G') = 2^(|E|-|V|) · #Avoidance(m).
func (m *Multigraph) Subdivide() *Graph {
	g := NewGraph(m.N + len(m.Edges))
	for i, e := range m.Edges {
		g.MustAddEdge(e[0], m.N+i)
		g.MustAddEdge(e[1], m.N+i)
	}
	return g
}

// CountAvoidingAssignmentsGraph counts avoiding assignments of a simple
// graph (a multigraph without parallel edges).
func CountAvoidingAssignmentsGraph(g *Graph) (*big.Int, error) {
	m := NewMultigraph(g.N())
	for _, e := range g.Edges() {
		m.MustAddEdge(e[0], e[1])
	}
	return m.CountAvoidingAssignments()
}
