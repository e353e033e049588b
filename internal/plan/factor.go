package plan

import (
	"fmt"
	"slices"

	"github.com/incompletedb/incompletedb/internal/cq"
)

// Independent-subquery factorization for #Val.
//
// A valuation ν is drawn over all nulls of D. A sub-query q_i can only
// observe ν through the facts of the relations it mentions, so the event
// "ν(D) ⊨ q_i" depends only on ν restricted to nulls(q_i) — the nulls
// occurring in facts of sig(q_i). When the parts of a query share no
// variables and their null sets are pairwise disjoint, the events are
// independent under the uniform product structure of the valuation space,
// and counts combine exactly:
//
//	conjunction:  #Val(q_1 ∧ … ∧ q_k) · total^(k−1) = ∏ #Val(q_i)
//	union:        (total − #Val(Q_1 ∨ … ∨ Q_k)) · total^(k−1) = ∏ (total − #Val(Q_g))
//
// where total = ∏ |dom(⊥)|. Both right-hand sides are divisible exactly,
// so the rewrite is lossless over big integers. The payoff is the cost
// shape: a joint sweep enumerates ∏_i ∏_{⊥∈nulls(q_i)} |dom(⊥)| — the
// PRODUCT of the component spaces — while the factored plan sweeps each
// component separately, so the spaces ADD and the largest component
// bounds the work.

// factorVal tries to split q into independent parts. It returns the
// sub-queries (each answered by a recursive plan), the combining
// operator, whether the rewrite applies, and — when it does not — the
// precondition that failed.
//
// pat, when non-nil, holds the Table 1 pattern flags of q, a valid
// sjfBCQ (sjfPatterns): without R(x) ∧ S(x) no two atoms share a
// variable, and only nulls can connect them.
func (b *builder) factorVal(q cq.Query, pat *cq.Patterns) (parts []cq.Query, op Op, ok bool, reason string) {
	switch t := q.(type) {
	case *cq.BCQ:
		if pat == nil && t.Validate() != nil {
			return nil, "", false, "factorization needs a well-formed query"
		}
		var groups [][]int
		if len(t.Atoms) > 1 {
			groups = b.atomComponents(t, pat == nil || pat.RxSx)
		}
		if len(groups) < 2 {
			return nil, "", false, "the query is a single connected component: its atoms share variables or touch overlapping nulls"
		}
		for _, g := range groups {
			atoms := make([]cq.Atom, len(g))
			for i, ai := range g {
				atoms[i] = t.Atoms[ai]
			}
			parts = append(parts, &cq.BCQ{Atoms: atoms})
		}
		return parts, OpFactor, true, fmt.Sprintf(
			"%d components share no variables and touch pairwise-disjoint nulls: relative counts multiply exactly", len(groups))
	case *cq.UCQ:
		for _, d := range t.Disjuncts {
			if d.Validate() != nil {
				return nil, "", false, "factorization needs well-formed disjuncts"
			}
		}
		groups := b.disjunctGroups(t)
		if len(groups) < 2 {
			return nil, "", false, "the union is a single connected group: its disjuncts touch overlapping nulls"
		}
		for _, g := range groups {
			if len(g) == 1 {
				parts = append(parts, t.Disjuncts[g[0]])
				continue
			}
			sub := &cq.UCQ{}
			for _, di := range g {
				sub.Disjuncts = append(sub.Disjuncts, t.Disjuncts[di])
			}
			parts = append(parts, sub)
		}
		return parts, OpFactorUnion, true, fmt.Sprintf(
			"%d disjunct groups touch pairwise-disjoint nulls: relative miss rates multiply exactly", len(groups))
	default:
		return nil, "", false, "factorization needs a BCQ or a union of BCQs (inequalities and opaque queries may couple their parts)"
	}
}

// atomComponents partitions the atoms of a BCQ into connected components,
// where two atoms are connected when they share a variable or when the
// facts of their relations share a null; sharedVars false says that no
// two atoms share a variable. Components are returned as sorted
// atom-index groups ordered by their smallest member, so the
// decomposition is deterministic.
func (b *builder) atomComponents(q *cq.BCQ, sharedVars bool) [][]int {
	uf := newUnionFind(len(q.Atoms))
	if sharedVars {
		varOwner := make(map[string]int)
		for i, a := range q.Atoms {
			for _, v := range a.Vars {
				if j, seen := varOwner[v]; seen {
					uf.union(i, j)
				} else {
					varOwner[v] = i
				}
			}
		}
	}
	b.resetOwners()
	for i, a := range q.Atoms {
		b.joinByNulls(uf, i, a.Rel)
	}
	return uf.groups()
}

// disjunctGroups partitions the disjuncts of a UCQ into groups connected
// by shared nulls. Variables are scoped per disjunct, so only the null
// sets matter.
func (b *builder) disjunctGroups(u *cq.UCQ) [][]int {
	uf := newUnionFind(len(u.Disjuncts))
	b.resetOwners()
	for i, d := range u.Disjuncts {
		for _, a := range d.Atoms {
			b.joinByNulls(uf, i, a.Rel)
		}
	}
	return uf.groups()
}

// resetOwners readies b.owner for one analysis: no null has an owner.
func (b *builder) resetOwners() {
	n := len(b.db.Nulls())
	b.owner = slices.Grow(b.owner[:0], n)[:n]
	for e := range b.owner {
		b.owner[e] = -1
	}
}

// joinByNulls joins item i with every earlier item whose relations'
// facts hold a null that the facts of rel hold. Nulls are indexed densely
// through the sorted db.Nulls(): each null records the first item that
// reached it, and a later item joins that one. A null's index is its
// distance from the least null when no ID between them is missing, as
// in a table whose nulls are numbered consecutively, and found by
// binary search otherwise.
func (b *builder) joinByNulls(uf *unionFind, i int, rel string) {
	nulls := b.db.Nulls()
	for _, f := range b.db.FactsOf(rel) {
		for _, a := range f.Args {
			if !a.IsNull() {
				continue
			}
			e := int(a.NullID() - nulls[0])
			if e >= len(nulls) || nulls[e] != a.NullID() {
				e, _ = slices.BinarySearch(nulls, a.NullID())
			}
			if j := b.owner[e]; j >= 0 {
				uf.union(i, int(j))
			} else {
				b.owner[e] = int32(i)
			}
		}
	}
}

// unionFind is a small union-find over [0, n) with deterministic group
// output.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union joins the sets of a and b; the smaller root becomes the root, so
// a root is its set's smallest member.
func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	switch {
	case ra < rb:
		u.parent[rb] = ra
	case rb < ra:
		u.parent[ra] = rb
	}
}

// groups returns the members of each component sorted, with groups
// ordered by their smallest member. The groups share one backing array.
func (u *unionFind) groups() [][]int {
	// A root is its group's smallest member, so numbering the roots in
	// order numbers the groups by their smallest members, and a member's
	// root is numbered before the member. group, not parent, holds the
	// numbers: find still walks parent.
	group := make([]int, len(u.parent))
	n := 0
	for i := range u.parent {
		if r := u.find(i); r == i {
			group[i] = n
			n++
		} else {
			group[i] = group[r]
		}
	}
	sizes := make([]int, n+1)
	for _, g := range group {
		sizes[g+1]++
	}
	for g := 1; g <= n; g++ {
		sizes[g] += sizes[g-1]
	}
	members := make([]int, len(group))
	out := make([][]int, n)
	for g := range out {
		out[g] = members[sizes[g]:sizes[g]:sizes[g+1]]
	}
	for i, g := range group {
		out[g] = append(out[g], i)
	}
	return out
}
