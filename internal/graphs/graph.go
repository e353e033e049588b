// Package graphs implements the graph substrate used by the paper's
// hardness reductions: simple undirected graphs, multigraphs, bipartite
// graphs, generators, and exact (exponential-time) counters for the #P-hard
// source problems — proper colorings, independent sets, vertex covers,
// avoiding assignments, pseudoforests, Hamiltonian induced subgraphs — on
// the small instances used to validate the reductions.
package graphs

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a finite simple undirected graph: no self-loops, no parallel
// edges. Nodes are 0..N-1.
type Graph struct {
	n     int
	adj   []map[int]bool
	edges [][2]int // u < v, in insertion order
}

// NewGraph returns an edgeless graph on n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("graphs: negative node count")
	}
	g := &Graph{n: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u, v}. It returns an error for
// self-loops or out-of-range nodes; parallel insertions are ignored.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("graphs: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graphs: self-loop at %d", u)
	}
	if g.adj[u][v] {
		return nil
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
	if u > v {
		u, v = v, u
	}
	g.edges = append(g.edges, [2]int{u, v})
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	return g.adj[u][v]
}

// Edges returns the edges as {u, v} pairs with u < v, in insertion order.
// The result must not be modified.
func (g *Graph) Edges() [][2]int { return g.edges }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbors of v.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.n)
	for _, e := range g.edges {
		c.MustAddEdge(e[0], e[1])
	}
	return c
}

// String renders the graph as "n=4 edges={0-1, 2-3}".
func (g *Graph) String() string {
	s := fmt.Sprintf("n=%d edges={", g.n)
	for i, e := range g.edges {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d-%d", e[0], e[1])
	}
	return s + "}"
}

// InducedSubgraph returns the subgraph of g induced by the node set s
// (as original node indices); the returned graph is on len(s) nodes in the
// sorted order of s, together with the mapping new→old.
func (g *Graph) InducedSubgraph(s []int) (*Graph, []int) {
	nodes := append([]int(nil), s...)
	sort.Ints(nodes)
	sub := NewGraph(len(nodes))
	for i, v := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if g.HasEdge(v, nodes[j]) {
				sub.MustAddEdge(i, j)
			}
		}
	}
	return sub, nodes
}

// Path returns the path graph on n nodes (0-1-2-…).
func Path(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle graph on n ≥ 3 nodes.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graphs: cycle needs at least 3 nodes")
	}
	g := Path(n)
	g.MustAddEdge(n-1, 0)
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

// Random returns an Erdős–Rényi G(n, p) graph drawn with r.
func Random(n int, p float64, r *rand.Rand) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustAddEdge(i, j)
			}
		}
	}
	return g
}

// Petersen returns the Petersen graph (3-regular, 3-colorable, and famously
// non-Hamiltonian), a standard stress instance.
func Petersen() *Graph {
	g := NewGraph(10)
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, (i+1)%5)     // outer cycle
		g.MustAddEdge(i+5, (i+2)%5+5) // inner pentagram
		g.MustAddEdge(i, i+5)         // spokes
	}
	return g
}

// Bipartite is a bipartite graph with left nodes 0..NL-1 and right nodes
// 0..NR-1; edges connect a left node to a right node.
type Bipartite struct {
	NL, NR int
	edges  [][2]int // (left, right)
	adjL   []map[int]bool
}

// NewBipartite returns an edgeless bipartite graph with the given part
// sizes.
func NewBipartite(nl, nr int) *Bipartite {
	b := &Bipartite{NL: nl, NR: nr, adjL: make([]map[int]bool, nl)}
	for i := range b.adjL {
		b.adjL[i] = make(map[int]bool)
	}
	return b
}

// AddEdge inserts the edge between left node l and right node r.
func (b *Bipartite) AddEdge(l, r int) error {
	if l < 0 || l >= b.NL || r < 0 || r >= b.NR {
		return fmt.Errorf("graphs: bipartite edge (%d,%d) out of range", l, r)
	}
	if b.adjL[l][r] {
		return nil
	}
	b.adjL[l][r] = true
	b.edges = append(b.edges, [2]int{l, r})
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (b *Bipartite) MustAddEdge(l, r int) {
	if err := b.AddEdge(l, r); err != nil {
		panic(err)
	}
}

// HasEdge reports whether (l, r) is an edge.
func (b *Bipartite) HasEdge(l, r int) bool {
	if l < 0 || l >= b.NL || r < 0 || r >= b.NR {
		return false
	}
	return b.adjL[l][r]
}

// Edges returns the (left, right) edges in insertion order.
func (b *Bipartite) Edges() [][2]int { return b.edges }

// AsGraph returns the same graph with left node i as node i and right node
// j as node NL+j.
func (b *Bipartite) AsGraph() *Graph {
	g := NewGraph(b.NL + b.NR)
	for _, e := range b.edges {
		g.MustAddEdge(e[0], b.NL+e[1])
	}
	return g
}

// RandomBipartite returns a random bipartite graph where each (l, r) pair is
// an edge with probability p.
func RandomBipartite(nl, nr int, p float64, r *rand.Rand) *Bipartite {
	b := NewBipartite(nl, nr)
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			if r.Float64() < p {
				b.MustAddEdge(i, j)
			}
		}
	}
	return b
}
