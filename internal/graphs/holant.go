package graphs

import (
	"fmt"
	"math/big"
)

// This file implements the Holant framework of Appendix A.2 (Definitions
// A.4/A.5), used by the paper to establish #P-hardness of #Avoidance: for a
// 2-3-regular bipartite graph and symmetric signatures [x0,x1,x2] on the
// degree-2 side and [y0,y1,y2,y3] on the degree-3 side,
//
//	Holant = Σ_{ν: E → {0,1}} Π_{u∈U} x_{w(u,ν)} · Π_{v∈V} y_{w(v,ν)}
//
// where w(t,ν) is the Hamming weight of ν on the edges incident to t.
// Example A.6 identifies matchings, perfect matchings and edge covers as
// Holant values; Proposition A.3 relates Holant([1,1,0]|[0,1,0,0]) to
// #Avoidance on the merged multigraph. All identities are exercised in the
// tests.

// Signature2 is a symmetric signature [x0, x1, x2] for degree-2 nodes.
type Signature2 [3]int64

// Signature3 is a symmetric signature [y0, y1, y2, y3] for degree-3 nodes.
type Signature3 [4]int64

// Standard signatures from Example A.6 and Proposition A.7.
var (
	// SigPerfectMatching2 and SigPerfectMatching3 give #perfect matchings.
	SigPerfectMatching2 = Signature2{0, 1, 0}
	SigPerfectMatching3 = Signature3{0, 1, 0, 0}
	// SigMatching2 and SigMatching3 give #matchings.
	SigMatching2 = Signature2{1, 1, 0}
	SigMatching3 = Signature3{1, 1, 0, 0}
	// SigEdgeCover2 and SigEdgeCover3 give #edge covers.
	SigEdgeCover2 = Signature2{0, 1, 1}
	SigEdgeCover3 = Signature3{0, 1, 1, 1}
	// SigAvoidance2 and SigAvoidance3 give the #P-hard problem
	// Holant([1,1,0]|[0,1,0,0]) of Proposition A.7, which equals
	// #Avoidance of the merged multigraph (Proposition A.3).
	SigAvoidance2 = Signature2{1, 1, 0}
	SigAvoidance3 = Signature3{0, 1, 0, 0}
)

// IsTwoThreeRegular reports whether the bipartite graph has every left node
// of degree 2 and every right node of degree 3.
func (b *Bipartite) IsTwoThreeRegular() bool {
	degR := make([]int, b.NR)
	degL := make([]int, b.NL)
	for _, e := range b.edges {
		degL[e[0]]++
		degR[e[1]]++
	}
	for _, d := range degL {
		if d != 2 {
			return false
		}
	}
	for _, d := range degR {
		if d != 3 {
			return false
		}
	}
	return true
}

// Holant evaluates the Holant sum on a 2-3-regular bipartite graph by
// exhaustive enumeration of edge assignments.
func Holant(b *Bipartite, left Signature2, right Signature3) (*big.Int, error) {
	if !b.IsTwoThreeRegular() {
		return nil, fmt.Errorf("graphs: Holant requires a 2-3-regular bipartite graph")
	}
	m := len(b.edges)
	if m > 24 {
		return nil, fmt.Errorf("graphs: Holant on %d edges exceeds the brute-force bound", m)
	}
	total := big.NewInt(0)
	term := new(big.Int)
	wL := make([]int, b.NL)
	wR := make([]int, b.NR)
	for mask := 0; mask < 1<<uint(m); mask++ {
		for i := range wL {
			wL[i] = 0
		}
		for i := range wR {
			wR[i] = 0
		}
		for e := 0; e < m; e++ {
			if mask&(1<<uint(e)) != 0 {
				wL[b.edges[e][0]]++
				wR[b.edges[e][1]]++
			}
		}
		prod := int64(1)
		for _, w := range wL {
			prod *= left[w]
			if prod == 0 {
				break
			}
		}
		if prod != 0 {
			for _, w := range wR {
				prod *= right[w]
				if prod == 0 {
					break
				}
			}
		}
		if prod != 0 {
			term.SetInt64(prod)
			total.Add(total, term)
		}
	}
	return total, nil
}

// Merge contracts every degree-2 left node of a 2-3-regular bipartite graph
// into a single multigraph edge between its two right neighbors (the
// "merging" of Proposition A.3). The result is a 3-regular multigraph.
func (b *Bipartite) Merge() (*Multigraph, error) {
	if !b.IsTwoThreeRegular() {
		return nil, fmt.Errorf("graphs: Merge requires a 2-3-regular bipartite graph")
	}
	m := NewMultigraph(b.NR)
	ends := make(map[int][]int)
	for _, e := range b.edges {
		ends[e[0]] = append(ends[e[0]], e[1])
	}
	for l := 0; l < b.NL; l++ {
		vs := ends[l]
		if len(vs) != 2 {
			return nil, fmt.Errorf("graphs: left node %d has degree %d", l, len(vs))
		}
		if vs[0] == vs[1] {
			return nil, fmt.Errorf("graphs: merging left node %d would create a self-loop", l)
		}
		if err := m.AddEdge(vs[0], vs[1]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// RandomTwoThreeRegularBipartite builds a random 2-3-regular bipartite
// GRAPH (no parallel edges) with 3k left and 2k right nodes using a
// configuration-model retry loop.
func RandomTwoThreeRegularBipartite(k int, r interface{ Perm(int) []int }) (*Bipartite, error) {
	if k < 1 {
		return nil, fmt.Errorf("graphs: need k ≥ 1")
	}
	nl, nr := 3*k, 2*k
	for attempt := 0; attempt < 200; attempt++ {
		// Stubs: each left node twice, each right node three times.
		stubsR := make([]int, 0, 6*k)
		for v := 0; v < nr; v++ {
			stubsR = append(stubsR, v, v, v)
		}
		perm := r.Perm(len(stubsR))
		b := NewBipartite(nl, nr)
		ok := true
		for l := 0; l < nl && ok; l++ {
			v1 := stubsR[perm[2*l]]
			v2 := stubsR[perm[2*l+1]]
			if v1 == v2 || b.HasEdge(l, v1) || b.HasEdge(l, v2) {
				ok = false
				break
			}
			b.MustAddEdge(l, v1)
			b.MustAddEdge(l, v2)
		}
		if ok && b.IsTwoThreeRegular() {
			return b, nil
		}
	}
	return nil, fmt.Errorf("graphs: failed to sample a 2-3-regular bipartite graph for k=%d", k)
}
