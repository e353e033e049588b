// Package classify implements the complexity classification of the
// counting problems #Val(q) and #Comp(q) for self-join-free Boolean
// conjunctive queries — the seven dichotomies (plus one open case) of
// Table 1 of Arenas, Barceló and Monet, "Counting Problems over Incomplete
// Databases" (PODS 2020), together with the approximability results of
// Section 5 and the beyond-#P facts of Section 6.
package classify

import (
	"fmt"
	"strings"

	"github.com/incompletedb/incompletedb/internal/cq"
)

// CountingKind selects between the two counting problems of the paper.
type CountingKind int

const (
	// Valuations is the problem #Val(q): count the valuations ν of D with
	// ν(D) ⊨ q.
	Valuations CountingKind = iota
	// Completions is the problem #Comp(q): count the distinct completions
	// ν(D) of D with ν(D) ⊨ q.
	Completions
)

func (k CountingKind) String() string {
	if k == Valuations {
		return "#Val"
	}
	return "#Comp"
}

// Variant identifies one of the eight problem variants: which quantity is
// counted, whether tables are restricted to Codd tables, and whether null
// domains are uniform.
type Variant struct {
	Kind    CountingKind
	Codd    bool
	Uniform bool
}

// String renders the variant in the paper's notation, e.g. "#Val_Cd^u(q)".
func (v Variant) String() string {
	s := v.Kind.String()
	if v.Uniform {
		s += "^u"
	}
	if v.Codd {
		s += "_Cd"
	}
	return s + "(q)"
}

// AllVariants lists the eight variants in the column order of Table 1.
func AllVariants() []Variant {
	return []Variant{
		{Valuations, false, false},
		{Valuations, false, true},
		{Completions, false, false},
		{Completions, false, true},
		{Valuations, true, false},
		{Valuations, true, true},
		{Completions, true, false},
		{Completions, true, true},
	}
}

// Complexity is the classification outcome for exact counting.
type Complexity int

const (
	// FP: computable exactly in polynomial time.
	FP Complexity = iota
	// SharpPComplete: #P-hard and in #P.
	SharpPComplete
	// SharpPHard: #P-hard; membership in #P is not claimed (and for
	// counting completions over naïve tables it fails for some q unless
	// NP ⊆ SPP, Proposition 6.1).
	SharpPHard
	// Open: not resolved by the paper (counting valuations over uniform
	// Codd tables when q has R(x,x) or R(x,y)∧S(x,y) but not the path
	// pattern).
	Open
)

func (c Complexity) String() string {
	switch c {
	case FP:
		return "FP"
	case SharpPComplete:
		return "#P-complete"
	case SharpPHard:
		return "#P-hard"
	default:
		return "open"
	}
}

// Approximability is the classification outcome for randomized
// approximation (Section 5).
type Approximability int

const (
	// HasFPRAS: a fully polynomial-time randomized approximation scheme
	// exists (for problems in FP, trivially; otherwise by Corollary 5.3).
	HasFPRAS Approximability = iota
	// NoFPRASUnlessNPeqRP: no FPRAS exists unless NP = RP.
	NoFPRASUnlessNPeqRP
	// ApproxOpen: left open by the paper (#Comp over uniform Codd tables
	// with a hard pattern).
	ApproxOpen
)

func (a Approximability) String() string {
	switch a {
	case HasFPRAS:
		return "FPRAS"
	case NoFPRASUnlessNPeqRP:
		return "no FPRAS unless NP=RP"
	default:
		return "open"
	}
}

// Result is the full classification of one problem variant for a query.
type Result struct {
	Variant    Variant
	Complexity Complexity
	// HardPattern is a witness pattern of q responsible for hardness (nil
	// when the problem is in FP or hardness needs no pattern).
	HardPattern *cq.BCQ
	// Approx is the approximability classification.
	Approx Approximability
	// Reference cites the theorem(s) of the paper justifying the outcome.
	Reference string
}

// Classify determines the complexity of the given variant for the sjfBCQ q
// according to Table 1. It returns an error if q is not a well-formed
// sjfBCQ.
func Classify(v Variant, q *cq.BCQ) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	if !q.SelfJoinFree() {
		return Result{}, fmt.Errorf("classify: %v is not self-join-free; the dichotomies of the paper do not apply", q)
	}
	return ClassifyPatterns(v, cq.PatternsOf(q)), nil
}

// ClassifyPatterns is Classify for a well-formed sjfBCQ given by its
// Table 1 pattern flags (cq.PatternsOf). The dichotomies of Table 1 are
// stated in terms of these patterns (Definition 3.1), so the flags decide
// every variant: a caller that already holds them, such as the planner,
// classifies without another pass over the query.
func ClassifyPatterns(v Variant, p cq.Patterns) Result {
	hasRxx, hasRxSx, hasPath, hasRxySxy, hasRxy := p.Rxx, p.RxSx, p.Path, p.RxySxy, p.Rxy

	res := Result{Variant: v}
	switch {
	case v.Kind == Valuations && !v.Codd && !v.Uniform:
		// Theorem 3.6.
		res.Reference = "Theorem 3.6"
		switch {
		case hasRxx:
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternRxx
		case hasRxSx:
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternRxSx
		default:
			res.Complexity = FP
		}
	case v.Kind == Valuations && v.Codd && !v.Uniform:
		// Theorem 3.7.
		res.Reference = "Theorem 3.7"
		if hasRxSx {
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternRxSx
		} else {
			res.Complexity = FP
		}
	case v.Kind == Valuations && !v.Codd && v.Uniform:
		// Theorem 3.9.
		res.Reference = "Theorem 3.9"
		switch {
		case hasRxx:
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternRxx
		case hasPath:
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternPath
		case hasRxySxy:
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternRxySxy
		default:
			res.Complexity = FP
		}
	case v.Kind == Valuations && v.Codd && v.Uniform:
		// Proposition 3.11 (hardness); tractable cases inherited from
		// Theorem 3.9 (uniform is a naïve special case) and Theorem 3.7
		// (uniform Codd is a non-uniform Codd special case). The rest is
		// the paper's open case.
		switch {
		case hasPath:
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternPath
			res.Reference = "Proposition 3.11"
		case !hasRxx && !hasRxySxy:
			res.Complexity = FP
			res.Reference = "Theorem 3.9 (uniform special case)"
		case !hasRxSx:
			res.Complexity = FP
			res.Reference = "Theorem 3.7 (Codd special case)"
		default:
			res.Complexity = Open
			res.Reference = "open problem (Section 3.2)"
		}
	case v.Kind == Completions && !v.Uniform:
		// Theorems 4.3 and 4.4: always hard, for every sjfBCQ.
		if v.Codd {
			res.Complexity = SharpPComplete
			res.Reference = "Theorem 4.4"
		} else {
			res.Complexity = SharpPHard
			res.Reference = "Theorem 4.3 (membership in #P fails for some q unless NP ⊆ SPP, Proposition 6.1)"
		}
		res.HardPattern = cq.PatternRx
	case v.Kind == Completions && v.Uniform:
		// Theorems 4.6 and 4.7.
		if v.Codd {
			res.Reference = "Theorem 4.7"
		} else {
			res.Reference = "Theorem 4.6"
		}
		switch {
		case hasRxx:
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternRxx
		case hasRxy:
			res.Complexity, res.HardPattern = SharpPComplete, cq.PatternRxy
		default:
			res.Complexity = FP
		}
		if res.Complexity == SharpPComplete && !v.Codd {
			// Membership in #P is not claimed for naïve tables.
			res.Complexity = SharpPHard
		}
	}

	res.Approx = approximability(v, res.Complexity)
	return res
}

// approximability applies the results of Section 5: counting valuations of
// (unions of) BCQs always has an FPRAS (Corollary 5.3); counting
// completions has none unless NP = RP, except in the FP cases and the open
// uniform-Codd case (Theorems 5.5 and 5.7).
func approximability(v Variant, c Complexity) Approximability {
	if v.Kind == Valuations {
		return HasFPRAS
	}
	if c == FP {
		return HasFPRAS
	}
	if v.Uniform && v.Codd {
		return ApproxOpen
	}
	return NoFPRASUnlessNPeqRP
}

// ClassifyAll classifies q under all eight variants.
func ClassifyAll(q *cq.BCQ) ([]Result, error) {
	var out []Result
	for _, v := range AllVariants() {
		r, err := Classify(v, q)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Table1 renders the dichotomy table of the paper: for each of the eight
// variants, the hard patterns characterizing #P-hardness (with the open
// cell marked).
func Table1() string {
	type cell struct {
		header   string
		patterns []string
		note     string
	}
	cells := []cell{
		{"#Val, non-uniform, naïve", []string{"R(x,x)", "R(x) ∧ S(x)"}, ""},
		{"#Val, uniform, naïve", []string{"R(x,x)", "R(x) ∧ S(x,y) ∧ T(y)", "R(x,y) ∧ S(x,y)"}, ""},
		{"#Comp, non-uniform, naïve", []string{"R(x)"}, "hard for every sjfBCQ"},
		{"#Comp, uniform, naïve", []string{"R(x,x)", "R(x,y)"}, ""},
		{"#Val, non-uniform, Codd", []string{"R(x) ∧ S(x)"}, ""},
		{"#Val, uniform, Codd", []string{"R(x) ∧ S(x,y) ∧ T(y)"}, "dichotomy open"},
		{"#Comp, non-uniform, Codd", []string{"R(x)"}, "hard for every sjfBCQ"},
		{"#Comp, uniform, Codd", []string{"R(x,x)", "R(x,y)"}, ""},
	}
	var b strings.Builder
	b.WriteString("Table 1 — hard patterns per variant (queries containing a listed pattern are #P-hard; otherwise FP, except where noted):\n")
	for _, c := range cells {
		b.WriteString(fmt.Sprintf("  %-28s %s", c.header, strings.Join(c.patterns, ", ")))
		if c.note != "" {
			b.WriteString("   [" + c.note + "]")
		}
		b.WriteString("\n")
	}
	return b.String()
}
