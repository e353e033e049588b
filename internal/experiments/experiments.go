// Package experiments implements the reproduction harness: one experiment
// per table, figure, worked example and constructive result of the paper,
// in the index order of RunAll. Each experiment reports the paper's claim
// next to the measured outcome; `incdb experiments` prints the reports
// (see the README's command-line section).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"time"

	"github.com/incompletedb/incompletedb/internal/approx"
	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/cnf"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/cylinder"
	"github.com/incompletedb/incompletedb/internal/graphs"
	"github.com/incompletedb/incompletedb/internal/reductions"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// Report is the outcome of one experiment.
type Report struct {
	ID         string
	Title      string
	PaperClaim string
	Measured   string
	Pass       bool
}

// Config tunes the harness.
type Config struct {
	// Quick shrinks instance sizes (used by the tests).
	Quick bool
	// Seed drives all randomized instances.
	Seed int64
}

// RunAll executes every experiment and returns the reports in index order.
func RunAll(cfg Config) []Report {
	return []Report{
		Table1Experiment(),
		Figure1Experiment(),
		Example310Experiment(cfg),
		Reduction3ColExperiment(cfg),
		ReductionAvoidanceExperiment(cfg),
		ReductionISExperiment(cfg),
		ReductionBISExperiment(cfg),
		ReductionVCExperiment(cfg),
		ReductionCompISExperiment(cfg),
		ReductionPFExperiment(cfg),
		GadgetExperiment(),
		StretchTutteExperiment(),
		ReductionK3SATExperiment(cfg),
		GapPExperiment(cfg),
		ReductionHamExperiment(cfg),
		CylinderWitnessExperiment(cfg),
		FPRASExperiment(cfg),
		ScalingValCoddExperiment(cfg),
		ScalingValUniformExperiment(cfg),
		ScalingCompUniformExperiment(cfg),
		NoFPRASGadgetExperiment(cfg),
		ZeroOneLawExperiment(cfg),
		HolantChainExperiment(cfg),
		CompletionMembershipExperiment(cfg),
	}
}

// HolantChainExperiment (E-A2) runs the Appendix A.2 hardness chain:
// Holant([1,1,0]|[0,1,0,0]) on a 2-3-regular bipartite graph equals
// #Avoidance of its merging (Proposition A.3), and subdividing the merging
// multiplies the count by 2^(|E|−|V|) (Proposition A.8).
func HolantChainExperiment(cfg Config) Report {
	r := rand.New(rand.NewSource(cfg.Seed))
	trials := 5
	if cfg.Quick {
		trials = 2
	}
	for i := 0; i < trials; i++ {
		b, err := graphs.RandomTwoThreeRegularBipartite(1+i%2, r)
		if err != nil {
			return failf("E-A2", "Holant chain", err)
		}
		h, err := graphs.Holant(b, graphs.SigAvoidance2, graphs.SigAvoidance3)
		if err != nil {
			return failf("E-A2", "Holant chain", err)
		}
		merged, err := b.Merge()
		if err != nil {
			return failf("E-A2", "Holant chain", err)
		}
		av, err := merged.CountAvoidingAssignments()
		if err != nil {
			return failf("E-A2", "Holant chain", err)
		}
		if h.Cmp(av) != 0 {
			return Report{ID: "E-A2", Title: "Appendix A.2 Holant chain", Pass: false,
				Measured: fmt.Sprintf("trial %d: Holant %v vs #Avoidance %v", i, h, av)}
		}
		sub := merged.Subdivide()
		avSub, err := graphs.CountAvoidingAssignmentsGraph(sub)
		if err != nil {
			return failf("E-A2", "Holant chain", err)
		}
		factor := new(big.Int).Lsh(av, uint(len(merged.Edges)-merged.N))
		if avSub.Cmp(factor) != 0 {
			return Report{ID: "E-A2", Title: "Appendix A.2 Holant chain", Pass: false,
				Measured: fmt.Sprintf("trial %d: subdivision %v vs %v", i, avSub, factor)}
		}
	}
	return Report{
		ID:         "E-A2",
		Title:      "Appendix A.2: Holant ↔ #Avoidance ↔ subdivision chain",
		PaperClaim: "Holant([1,1,0]|[0,1,0,0]) = #Avoidance(merging); subdividing multiplies by 2^(|E|−|V|)",
		Measured:   fmt.Sprintf("%d random 2-3-regular instances: both identities hold", trials),
		Pass:       true,
	}
}

// CompletionMembershipExperiment (E-B2) validates Lemma B.2: the
// matching-based completion membership test agrees with enumeration, and
// guess-and-check over the ground universe reproduces the completion count
// (the #P membership machine of Proposition B.1).
func CompletionMembershipExperiment(cfg Config) Report {
	r := rand.New(rand.NewSource(cfg.Seed))
	trials := 10
	if cfg.Quick {
		trials = 4
	}
	for i := 0; i < trials; i++ {
		db := core.NewDatabase()
		next := core.NullID(1)
		universe := []string{"a", "b", "c"}
		nf := 1 + r.Intn(3)
		for j := 0; j < nf; j++ {
			if r.Intn(2) == 0 {
				db.MustAddFact("R", core.Null(next))
				size := 1 + r.Intn(3)
				db.SetDomain(next, universe[:size])
				next++
			} else {
				db.MustAddFact("R", core.Const(universe[r.Intn(3)]))
			}
		}
		comps, err := count.EnumerateCompletions(db, nil)
		if err != nil {
			return failf("E-B2", "Lemma B.2", err)
		}
		for _, c := range comps {
			ok, err := count.IsCompletionOf(db, c)
			if err != nil || !ok {
				return Report{ID: "E-B2", Title: "Lemma B.2", Pass: false,
					Measured: fmt.Sprintf("trial %d: completion rejected (%v)", i, err)}
			}
		}
		// Guess-and-check over the ground universe of unary R-facts.
		accepted := 0
		for mask := 0; mask < 1<<3; mask++ {
			inst := core.NewInstance()
			for bit, v := range universe {
				if mask&(1<<uint(bit)) != 0 {
					inst.Add("R", v)
				}
			}
			ok, err := count.IsCompletionOf(db, inst)
			if err != nil {
				return failf("E-B2", "Lemma B.2", err)
			}
			if ok {
				accepted++
			}
		}
		if accepted != len(comps) {
			return Report{ID: "E-B2", Title: "Lemma B.2", Pass: false,
				Measured: fmt.Sprintf("trial %d: guess-and-check %d vs enumeration %d", i, accepted, len(comps))}
		}
	}
	return Report{
		ID:         "E-B2",
		Title:      "Lemma B.2 / Prop. B.1: completion membership by bipartite matching",
		PaperClaim: "ν(D) = S is decidable in PTIME for Codd tables; guess-and-check puts #CompCd in #P",
		Measured:   fmt.Sprintf("%d random Codd tables: matching test = enumeration, counts agree", trials),
		Pass:       true,
	}
}

// ZeroOneLawExperiment (E-MU) demonstrates the 0–1-law behaviour of
// Libkin's µ_k measure discussed in Section 7: over the table
// T = {S(⊥1,⊥2)}, µ_k(S(x,x)) = 1/k → 0 while µ_k(¬S(x,x)) → 1.
func ZeroOneLawExperiment(cfg Config) Report {
	db := core.NewDatabase()
	db.MustAddFact("S", core.Null(1), core.Null(2))
	qPos := cq.MustParseBCQ("S(x, x)")
	qNeg := cq.Negation{Inner: qPos}
	ks := []int{2, 8, 64, 512}
	if cfg.Quick {
		ks = []int{2, 8, 32}
	}
	sol := solver.NewSolver()
	var rows []string
	for _, k := range ks {
		rp, err := sol.Mu(context.Background(), db, qPos, k, nil)
		if err != nil {
			return failf("E-MU", "0-1 law", err)
		}
		rn, err := sol.Mu(context.Background(), db, &qNeg, k, nil)
		if err != nil {
			return failf("E-MU", "0-1 law", err)
		}
		mp, mn := rp.Ratio, rn.Ratio
		if mp.Cmp(big.NewRat(1, int64(k))) != 0 {
			return Report{ID: "E-MU", Title: "0-1 law", Pass: false,
				Measured: fmt.Sprintf("µ_%d(S(x,x)) = %v, want 1/%d", k, mp, k)}
		}
		fp, _ := mp.Float64()
		fn, _ := mn.Float64()
		rows = append(rows, fmt.Sprintf("k=%d: µ(q)=%.4f µ(¬q)=%.4f", k, fp, fn))
	}
	return Report{
		ID:         "E-MU",
		Title:      "Section 7: Libkin's µ_k measure and the 0-1 law",
		PaperClaim: "for generic queries µ_k tends to 0 or 1 as k grows",
		Measured:   strings.Join(rows, "; "),
		Pass:       true,
	}
}

// Table1Experiment (E-T1) regenerates Table 1 from the classifier and
// compares every cell against the paper's table.
func Table1Experiment() Report {
	type expectation struct {
		variant classify.Variant
		query   string
		want    classify.Complexity
	}
	v := func(k classify.CountingKind, codd, uni bool) classify.Variant {
		return classify.Variant{Kind: k, Codd: codd, Uniform: uni}
	}
	expectations := []expectation{
		// Column 1: #Val non-uniform.
		{v(classify.Valuations, false, false), "R(x,x)", classify.SharpPComplete},
		{v(classify.Valuations, false, false), "R(x) ∧ S(x)", classify.SharpPComplete},
		{v(classify.Valuations, false, false), "R(x,y) ∧ S(z)", classify.FP},
		{v(classify.Valuations, true, false), "R(x) ∧ S(x)", classify.SharpPComplete},
		{v(classify.Valuations, true, false), "R(x,x)", classify.FP},
		// Column 2: #Val uniform.
		{v(classify.Valuations, false, true), "R(x,x)", classify.SharpPComplete},
		{v(classify.Valuations, false, true), "R(x) ∧ S(x,y) ∧ T(y)", classify.SharpPComplete},
		{v(classify.Valuations, false, true), "R(x,y) ∧ S(x,y)", classify.SharpPComplete},
		{v(classify.Valuations, false, true), "R(x) ∧ S(x)", classify.FP},
		{v(classify.Valuations, true, true), "R(x) ∧ S(x,y) ∧ T(y)", classify.SharpPComplete},
		{v(classify.Valuations, true, true), "R(x,y) ∧ S(x,y)", classify.Open},
		{v(classify.Valuations, true, true), "R(x,x)", classify.FP},
		// Column 3: #Comp non-uniform (hard for every sjfBCQ).
		{v(classify.Completions, false, false), "R(x)", classify.SharpPHard},
		{v(classify.Completions, true, false), "R(x)", classify.SharpPComplete},
		// Column 4: #Comp uniform.
		{v(classify.Completions, false, true), "R(x,x)", classify.SharpPHard},
		{v(classify.Completions, false, true), "R(x,y)", classify.SharpPHard},
		{v(classify.Completions, false, true), "R(x) ∧ S(x)", classify.FP},
		{v(classify.Completions, true, true), "R(x,y)", classify.SharpPComplete},
		{v(classify.Completions, true, true), "R(x) ∧ S(y)", classify.FP},
	}
	fails := 0
	var details []string
	for _, e := range expectations {
		r, err := classify.Classify(e.variant, cq.MustParseBCQ(e.query))
		if err != nil || r.Complexity != e.want {
			fails++
			details = append(details, fmt.Sprintf("%v on %s: got %v want %v", e.variant, e.query, r.Complexity, e.want))
		}
	}
	measured := fmt.Sprintf("%d/%d cells match the paper's table", len(expectations)-fails, len(expectations))
	if fails > 0 {
		measured += "; mismatches: " + strings.Join(details, "; ")
	}
	return Report{
		ID:         "E-T1",
		Title:      "Table 1: the seven dichotomies (plus the open case)",
		PaperClaim: "hard patterns per variant exactly as printed in Table 1",
		Measured:   measured,
		Pass:       fails == 0,
	}
}

// Figure1Experiment (E-F1) replays Example 2.2 / Figure 1.
func Figure1Experiment() Report {
	db := core.NewDatabase()
	db.MustAddFact("S", core.Const("a"), core.Const("b"))
	db.MustAddFact("S", core.Null(1), core.Const("a"))
	db.MustAddFact("S", core.Const("a"), core.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})
	q := cq.MustParseBCQ("S(x, x)")
	total, _ := db.NumValuations()
	val, _ := count.BruteForceValuations(db, q, nil)
	comp, _ := count.BruteForceCompletions(db, q, nil)
	pass := total.Cmp(big.NewInt(6)) == 0 && val.Cmp(big.NewInt(4)) == 0 && comp.Cmp(big.NewInt(3)) == 0
	return Report{
		ID:         "E-F1",
		Title:      "Figure 1 / Example 2.2",
		PaperClaim: "6 valuations, #Val(q)(D) = 4, #Comp(q)(D) = 3",
		Measured:   fmt.Sprintf("%v valuations, #Val = %v, #Comp = %v", total, val, comp),
		Pass:       pass,
	}
}

// Example310Experiment (E-EX310) checks the FP algorithm for
// #Valu(R(x) ∧ S(x)) against brute force on random instances.
func Example310Experiment(cfg Config) Report {
	r := rand.New(rand.NewSource(cfg.Seed))
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	trials := 40
	if cfg.Quick {
		trials = 10
	}
	for i := 0; i < trials; i++ {
		db := randomUnaryDB(r, []string{"R", "S"}, 3, 4, 3)
		want, err := count.BruteForceValuations(db, q, nil)
		if err != nil {
			return failf("E-EX310", "Example 3.10", err)
		}
		got, err := count.ValuationsUniform(db, q)
		if err != nil || got.Cmp(want) != 0 {
			return Report{ID: "E-EX310", Title: "Example 3.10", Pass: false,
				Measured: fmt.Sprintf("mismatch on trial %d: %v vs %v (%v)", i, got, want, err)}
		}
	}
	return Report{
		ID:         "E-EX310",
		Title:      "Example 3.10: #Valu(R(x) ∧ S(x)) ∈ FP",
		PaperClaim: "the surjection-based algorithm computes #Valu exactly",
		Measured:   fmt.Sprintf("%d random instances match brute force", trials),
		Pass:       true,
	}
}

func randomUnaryDB(r *rand.Rand, rels []string, maxFacts, nNulls, domSize int) *core.Database {
	dom := make([]string, domSize)
	for i := range dom {
		dom[i] = fmt.Sprintf("c%d", i)
	}
	db := core.NewUniformDatabase(dom)
	for _, rel := range rels {
		nf := 1 + r.Intn(maxFacts)
		for i := 0; i < nf; i++ {
			if r.Intn(2) == 0 {
				db.MustAddFact(rel, core.Null(core.NullID(1+r.Intn(nNulls))))
			} else {
				db.MustAddFact(rel, core.Const(dom[r.Intn(domSize)]))
			}
		}
	}
	return db
}

func failf(id, title string, err error) Report {
	return Report{ID: id, Title: title, Measured: fmt.Sprintf("error: %v", err), Pass: false}
}

// reductionTrial validates one graph reduction on random graphs.
func reductionTrial(id, title, claim string, cfg Config, trials int,
	run func(r *rand.Rand) (got, want *big.Int, err error)) Report {
	r := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Quick && trials > 3 {
		trials = 3
	}
	for i := 0; i < trials; i++ {
		got, want, err := run(r)
		if err != nil {
			return failf(id, title, err)
		}
		if got.Cmp(want) != 0 {
			return Report{ID: id, Title: title, PaperClaim: claim, Pass: false,
				Measured: fmt.Sprintf("trial %d: recovered %v, direct %v", i, got, want)}
		}
	}
	return Report{ID: id, Title: title, PaperClaim: claim, Pass: true,
		Measured: fmt.Sprintf("%d random instances: recovered count equals direct count", trials)}
}

// Reduction3ColExperiment (E-P3.4).
func Reduction3ColExperiment(cfg Config) Report {
	return reductionTrial("E-P3.4", "Proposition 3.4: #3COL ≤ #Valu(R(x,x))",
		"number of 3-colorings recoverable from #Valu(R(x,x))", cfg, 8,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			g := graphs.Random(2+r.Intn(4), 0.5, r)
			red := reductions.ThreeColoringToVal(g)
			val, err := count.BruteForceValuations(red.DB, red.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			want, err := graphs.CountProperColorings(g, 3)
			return red.Recover(val), want, err
		})
}

// ReductionAvoidanceExperiment (E-P3.5).
func ReductionAvoidanceExperiment(cfg Config) Report {
	return reductionTrial("E-P3.5", "Proposition 3.5: #Avoidance ≤ #ValCd(R(x) ∧ S(x))",
		"avoiding assignments recoverable from the Codd valuation count", cfg, 8,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			b := graphs.RandomBipartite(1+r.Intn(3), 1+r.Intn(3), 0.7, r)
			red := reductions.AvoidanceToValCodd(b)
			val, err := count.BruteForceValuations(red.DB, red.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			want, err := graphs.CountAvoidingAssignmentsGraph(b.AsGraph())
			return red.Recover(val), want, err
		})
}

// ReductionISExperiment (E-P3.8).
func ReductionISExperiment(cfg Config) Report {
	return reductionTrial("E-P3.8", "Proposition 3.8: #IS ≤ #Valu(path) and #Valu(R(x,y) ∧ S(x,y))",
		"independent sets recoverable from both uniform valuation counts", cfg, 8,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			g := graphs.Random(2+r.Intn(4), 0.5, r)
			want, err := graphs.CountIndependentSets(g)
			if err != nil {
				return nil, nil, err
			}
			red1 := reductions.IndependentSetsToValPath(g)
			v1, err := count.BruteForceValuations(red1.DB, red1.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			got1 := red1.Recover(v1)
			red2 := reductions.IndependentSetsToValRxySxy(g)
			v2, err := count.BruteForceValuations(red2.DB, red2.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			got2 := red2.Recover(v2)
			if got1.Cmp(got2) != 0 {
				return got1, got2, fmt.Errorf("the two patterns disagree")
			}
			return got1, want, nil
		})
}

// ReductionBISExperiment (E-P3.11).
func ReductionBISExperiment(cfg Config) Report {
	oracle := func(db *core.Database, q *cq.BCQ) (*big.Int, error) {
		return count.BruteForceValuations(db, q, nil)
	}
	return reductionTrial("E-P3.11", "Proposition 3.11: #BIS via (n+1)² oracle calls + surjection-matrix inversion",
		"#BIS recoverable by inverting the Kronecker surjection system", cfg, 5,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			b := graphs.RandomBipartite(1+r.Intn(3), 1+r.Intn(3), 0.5, r)
			got, err := reductions.BISViaLinearSystem(b, oracle)
			if err != nil {
				return nil, nil, err
			}
			want, err := graphs.CountIndependentSetsBipartite(b)
			return got, want, err
		})
}

// ReductionVCExperiment (E-P4.2).
func ReductionVCExperiment(cfg Config) Report {
	return reductionTrial("E-P4.2", "Proposition 4.2: #VC ≤par #CompCd(R(x))",
		"vertex covers equal the completion count (parsimonious)", cfg, 8,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			g := graphs.Random(2+r.Intn(3), 0.5, r)
			red := reductions.VertexCoversToCompCodd(g)
			comp, err := count.BruteForceCompletions(red.DB, red.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			want, err := graphs.CountVertexCovers(g)
			return red.Recover(comp), want, err
		})
}

// ReductionCompISExperiment (E-P4.5a).
func ReductionCompISExperiment(cfg Config) Report {
	return reductionTrial("E-P4.5a", "Proposition 4.5(a): #Compu = 2^|V| + #IS",
		"completion count of the gadget is 2^|V| + #IS(G)", cfg, 6,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			g := graphs.Random(2+r.Intn(3), 0.5, r)
			red := reductions.IndependentSetsToCompUniform(g)
			comp, err := count.BruteForceCompletions(red.DB, red.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			want, err := graphs.CountIndependentSets(g)
			return red.Recover(comp), want, err
		})
}

// ReductionPFExperiment (E-P4.5b).
func ReductionPFExperiment(cfg Config) Report {
	return reductionTrial("E-P4.5b", "Proposition 4.5(b): #PF ≤par #CompuCd(binary R)",
		"pseudoforest subsets equal the Codd completion count", cfg, 4,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			b := graphs.RandomBipartite(1+r.Intn(2), 1+r.Intn(2), 0.7, r)
			red := reductions.PseudoforestsToCompUniformCodd(b)
			comp, err := count.BruteForceCompletions(red.DB, red.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			want, err := graphs.CountPseudoforestSubsets(b.AsGraph())
			return red.Recover(comp), want, err
		})
}

// GadgetExperiment (E-P5.6) checks the 7-vs-8 completions gadget on a
// 3-colorable and a non-3-colorable graph.
func GadgetExperiment() Report {
	c5 := reductions.ColorabilityGadget(graphs.Cycle(5))
	k4 := reductions.ColorabilityGadget(graphs.Complete(4))
	n5, err1 := count.BruteForceCompletions(c5.DB, c5.Query, nil)
	n4, err2 := count.BruteForceCompletions(k4.DB, k4.Query, nil)
	pass := err1 == nil && err2 == nil &&
		n5.Cmp(big.NewInt(8)) == 0 && n4.Cmp(big.NewInt(7)) == 0
	return Report{
		ID:         "E-P5.6",
		Title:      "Proposition 5.6: the 7-vs-8-completions gadget",
		PaperClaim: "8 completions iff G is 3-colorable, 7 otherwise",
		Measured:   fmt.Sprintf("C5 (3-colorable): %v completions; K4 (not): %v completions", n5, n4),
		Pass:       pass,
	}
}

// StretchTutteExperiment (E-B5) checks the Brylawski stretch identity of
// Appendix B.5.
func StretchTutteExperiment() Report {
	g := graphs.Cycle(3)
	g2 := graphs.NewGraph(4)
	g2.MustAddEdge(0, 1)
	g2.MustAddEdge(1, 2)
	g2.MustAddEdge(2, 0)
	g2.MustAddEdge(2, 3)
	for _, gg := range []*graphs.Graph{g, g2} {
		for _, k := range []int{2, 3} {
			sk, err := graphs.Stretch(gg, k)
			if err != nil {
				return failf("E-B5", "stretch identity", err)
			}
			lhsInt, err := graphs.CountPseudoforestSubsets(sk)
			if err != nil {
				return failf("E-B5", "stretch identity", err)
			}
			lhs := new(big.Rat).SetInt(lhsInt)
			rhs, err := graphs.BicircularTutteX1(gg, big.NewRat(int64(1<<uint(k)), 1))
			if err != nil {
				return failf("E-B5", "stretch identity", err)
			}
			exp := gg.M() - graphs.BicircularRank(gg)
			factor := big.NewRat(1, 1)
			for i := 0; i < exp; i++ {
				factor.Mul(factor, big.NewRat(int64(1<<uint(k)-1), 1))
			}
			rhs.Mul(rhs, factor)
			if lhs.Cmp(rhs) != 0 {
				return Report{ID: "E-B5", Title: "Appendix B.5 stretch identity", Pass: false,
					Measured: fmt.Sprintf("k=%d: lhs %v, rhs %v", k, lhs, rhs)}
			}
		}
	}
	return Report{
		ID:         "E-B5",
		Title:      "Appendix B.5: T(B(s_k(G));2,1) = (2^k−1)^(|E|−rk)·T(B(G);2^k,1)",
		PaperClaim: "the bicircular Tutte stretch identity holds",
		Measured:   "identity verified on 2 graphs × k ∈ {2,3}",
		Pass:       true,
	}
}

// ReductionK3SATExperiment (E-T6.3).
func ReductionK3SATExperiment(cfg Config) Report {
	return reductionTrial("E-T6.3", "Theorem 6.3: #k3SAT =par #Compu(¬q)",
		"#k3SAT equals the completion count of the negated query", cfg, 4,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			f, err := cnf.Random3CNF(3+r.Intn(2), 1+r.Intn(3), r)
			if err != nil {
				return nil, nil, err
			}
			k := 1 + r.Intn(f.NumVars)
			red, err := reductions.K3SATToCompNeg(f, k)
			if err != nil {
				return nil, nil, err
			}
			comp, err := count.BruteForceCompletions(red.DB, red.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			want, err := f.CountSatisfyingPrefixes(k)
			return red.Recover(comp), want, err
		})
}

// GapPExperiment (E-P6.1) verifies #Compu(¬q) = #Compu(σ) − #Compu(q) and
// the Lemma D.1 padding.
func GapPExperiment(cfg Config) Report {
	r := rand.New(rand.NewSource(cfg.Seed))
	f, err := cnf.Random3CNF(3, 2, r)
	if err != nil {
		return failf("E-P6.1", "GapP identity", err)
	}
	red, err := reductions.K3SATToCompNeg(f, 2)
	if err != nil {
		return failf("E-P6.1", "GapP identity", err)
	}
	q := reductions.K3SATQuery()
	all, _ := count.BruteForceAllCompletions(red.DB, nil)
	pos, _ := count.BruteForceCompletions(red.DB, q, nil)
	neg, _ := count.BruteForceCompletions(red.DB, &cq.Negation{Inner: q}, nil)
	padded, err := reductions.PadForK3SATQuery(red.DB)
	if err != nil {
		return failf("E-P6.1", "GapP identity", err)
	}
	padPos, _ := count.BruteForceCompletions(padded, q, nil)
	sum := new(big.Int).Add(pos, neg)
	pass := sum.Cmp(all) == 0 && padPos.Cmp(all) == 0
	return Report{
		ID:         "E-P6.1",
		Title:      "Proposition 6.1 / Lemma D.1: GapP identity and padding",
		PaperClaim: "#Compu(q) + #Compu(¬q) = #Compu(σ), and padding makes every completion satisfy q",
		Measured:   fmt.Sprintf("%v + %v = %v; padded #Compu(q) = %v", pos, neg, all, padPos),
		Pass:       pass,
	}
}

// ReductionHamExperiment (E-T6.4).
func ReductionHamExperiment(cfg Config) Report {
	return reductionTrial("E-T6.4", "Theorem 6.4: #HamSubgraphs =par #Valu(q_∃SO)",
		"Hamiltonian induced k-subgraphs equal the valuation count", cfg, 4,
		func(r *rand.Rand) (*big.Int, *big.Int, error) {
			g := graphs.Random(4+r.Intn(2), 0.6, r)
			k := 3 + r.Intn(2)
			if k > g.N() {
				k = g.N()
			}
			red, err := reductions.HamSubgraphsToVal(g, k)
			if err != nil {
				return nil, nil, err
			}
			val, err := count.BruteForceValuations(red.DB, red.Query, nil)
			if err != nil {
				return nil, nil, err
			}
			want, err := graphs.CountHamiltonianInducedSubgraphs(g, k)
			return red.Recover(val), want, err
		})
}

// CylinderWitnessExperiment (E-P5.2) checks that the cylinder-union count
// (the SpanL witness semantics) equals brute force.
func CylinderWitnessExperiment(cfg Config) Report {
	r := rand.New(rand.NewSource(cfg.Seed))
	q := cq.MustParseBCQ("R(x, y) ∧ S(y)")
	trials := 20
	if cfg.Quick {
		trials = 6
	}
	done := 0
	for i := 0; i < trials; i++ {
		db := core.NewUniformDatabase([]string{"a", "b", "c"})
		for _, s := range []struct {
			rel   string
			arity int
		}{{"R", 2}, {"S", 1}} {
			rel, ar := s.rel, s.arity
			nf := 1 + r.Intn(2)
			for j := 0; j < nf; j++ {
				args := make([]core.Value, ar)
				for p := range args {
					if r.Intn(2) == 0 {
						args[p] = core.Null(core.NullID(1 + r.Intn(3)))
					} else {
						args[p] = core.Const([]string{"a", "b", "c"}[r.Intn(3)])
					}
				}
				db.MustAddFact(rel, args...)
			}
		}
		set, err := cylinder.BuildAtMost(db, q, cylinder.MaxUnionCylinders)
		if errors.Is(err, cylinder.ErrTooManyCylinders) {
			continue
		}
		if err != nil {
			return failf("E-P5.2", "cylinder union", err)
		}
		union, err := set.UnionCountParallel(context.Background(), 1)
		if err != nil {
			return failf("E-P5.2", "cylinder union", err)
		}
		brute, err := count.BruteForceValuations(db, q, nil)
		if err != nil {
			return failf("E-P5.2", "cylinder union", err)
		}
		if union.Cmp(brute) != 0 {
			return Report{ID: "E-P5.2", Title: "Proposition 5.2 witness semantics", Pass: false,
				Measured: fmt.Sprintf("trial %d: union %v vs brute %v", i, union, brute)}
		}
		done++
	}
	return Report{
		ID:         "E-P5.2",
		Title:      "Proposition 5.2: witness (cylinder) semantics is exact",
		PaperClaim: "#Val(q) equals the number of valuations in the union of match cylinders",
		Measured:   fmt.Sprintf("%d random instances: inclusion–exclusion over cylinders equals brute force", done),
		Pass:       true,
	}
}

// FPRASExperiment (E-C5.3) checks the Karp–Luby estimator against the exact
// count, including on an instance far beyond brute-force reach.
func FPRASExperiment(cfg Config) Report {
	r := rand.New(rand.NewSource(cfg.Seed))
	d := 10
	dom := make([]string, d)
	for i := range dom {
		dom[i] = fmt.Sprintf("v%d", i)
	}
	db := core.NewUniformDatabase(dom)
	db.MustAddFact("R", core.Null(1), core.Null(2))
	free := 40
	if cfg.Quick {
		free = 20
	}
	for i := 0; i < free; i++ {
		db.MustAddFact("F", core.Null(core.NullID(10+i)))
	}
	q := cq.MustParseBCQ("R(x, x)")
	want := new(big.Int).Exp(big.NewInt(int64(d)), big.NewInt(int64(free+1)), nil)
	start := time.Now()
	res, err := approx.KarpLubyValuations(context.Background(), db, q, 0.05, 0.05, r)
	if err != nil {
		return failf("E-C5.3", "Karp–Luby FPRAS", err)
	}
	elapsed := time.Since(start)
	diff := new(big.Int).Sub(res.Estimate, want)
	diff.Abs(diff)
	bound := new(big.Int).Div(want, big.NewInt(20))
	pass := diff.Cmp(bound) <= 0
	return Report{
		ID:         "E-C5.3",
		Title:      "Corollary 5.3: Karp–Luby FPRAS for #Val",
		PaperClaim: "an (ε,δ)-approximation exists for #Val of any union of BCQs",
		Measured: fmt.Sprintf("d^%d ≈ 10^%d valuations: estimate %v vs exact %v (ε=0.05) in %v",
			free+2, free+2, res.Estimate, want, elapsed.Round(time.Millisecond)),
		Pass: pass,
	}
}

// scalingSeries runs exact-vs-brute timings over a size sweep and renders a
// text series (the repository's substitute for a figure).
func scalingSeries(sizes []int, build func(n int) *core.Database, q *cq.BCQ,
	exact func(*core.Database, *cq.BCQ) (*big.Int, error)) (string, bool) {
	var rows []string
	ok := true
	for _, n := range sizes {
		db := build(n)
		t0 := time.Now()
		ex, err := exact(db, q)
		exactTime := time.Since(t0)
		if err != nil {
			return fmt.Sprintf("n=%d: exact failed: %v", n, err), false
		}
		total, _ := db.NumValuations()
		if total.Cmp(big.NewInt(1<<20)) <= 0 {
			t1 := time.Now()
			br, err := count.BruteForceValuations(db, q, nil)
			bruteTime := time.Since(t1)
			if err != nil {
				return fmt.Sprintf("n=%d: brute failed: %v", n, err), false
			}
			if ex.Cmp(br) != 0 {
				rows = append(rows, fmt.Sprintf("n=%d: MISMATCH exact=%v brute=%v", n, ex, br))
				ok = false
				continue
			}
			rows = append(rows, fmt.Sprintf("n=%d: exact %v, brute %v (counts agree)", n, exactTime.Round(time.Microsecond), bruteTime.Round(time.Microsecond)))
		} else {
			rows = append(rows, fmt.Sprintf("n=%d: exact %v, brute skipped (%v valuations)", n, exactTime.Round(time.Microsecond), total))
		}
	}
	return strings.Join(rows, "\n    "), ok
}

// ScalingValCoddExperiment (E-FIG-VAL-CODD).
func ScalingValCoddExperiment(cfg Config) Report {
	sizes := []int{2, 4, 6, 8, 32, 128}
	if cfg.Quick {
		sizes = []int{2, 4, 16}
	}
	build := func(n int) *core.Database {
		db := core.NewDatabase()
		for i := 0; i < n; i++ {
			a, b := core.NullID(2*i+1), core.NullID(2*i+2)
			db.MustAddFact("R", core.Null(a), core.Null(b))
			db.SetDomain(a, []string{"a", "b", "c"})
			db.SetDomain(b, []string{"b", "c", "d"})
		}
		return db
	}
	q := cq.MustParseBCQ("R(x, x)")
	series, ok := scalingSeries(sizes, build, q, count.ValuationsCodd)
	return Report{
		ID:         "E-FIG-VAL-CODD",
		Title:      "Scaling: Theorem 3.7 FP algorithm vs brute force (#ValCd)",
		PaperClaim: "polynomial exact counting where brute force is exponential",
		Measured:   series,
		Pass:       ok,
	}
}

// ScalingValUniformExperiment (E-FIG-VAL-UNI).
func ScalingValUniformExperiment(cfg Config) Report {
	sizes := []int{2, 4, 6, 16, 32}
	if cfg.Quick {
		sizes = []int{2, 4, 8}
	}
	build := func(n int) *core.Database {
		db := core.NewUniformDatabase([]string{"a", "b", "c"})
		for i := 0; i < n; i++ {
			db.MustAddFact("R", core.Null(core.NullID(i+1)))
			db.MustAddFact("S", core.Null(core.NullID(n+i+1)))
		}
		return db
	}
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	series, ok := scalingSeries(sizes, build, q, count.ValuationsUniform)
	return Report{
		ID:         "E-FIG-VAL-UNI",
		Title:      "Scaling: Theorem 3.9 FP algorithm vs brute force (#Valu)",
		PaperClaim: "polynomial exact counting where brute force is exponential",
		Measured:   series,
		Pass:       ok,
	}
}

// ScalingCompUniformExperiment (E-FIG-COMP-UNI).
func ScalingCompUniformExperiment(cfg Config) Report {
	sizes := []int{2, 4, 6, 10}
	if cfg.Quick {
		sizes = []int{2, 4}
	}
	build := func(n int) *core.Database {
		db := core.NewUniformDatabase([]string{"a", "b", "c", "d"})
		for i := 0; i < n; i++ {
			db.MustAddFact("R", core.Null(core.NullID(i+1)))
			db.MustAddFact("S", core.Null(core.NullID(n+i+1)))
		}
		db.MustAddFact("R", core.Const("a"))
		return db
	}
	q := cq.MustParseBCQ("R(x) ∧ S(x)")
	// Brute force for completions needs its own comparator.
	var rows []string
	ok := true
	for _, n := range sizes {
		db := build(n)
		t0 := time.Now()
		ex, err := count.CompletionsUniform(db, q)
		exactTime := time.Since(t0)
		if err != nil {
			return failf("E-FIG-COMP-UNI", "scaling comp uniform", err)
		}
		total, _ := db.NumValuations()
		if total.Cmp(big.NewInt(1<<18)) <= 0 {
			t1 := time.Now()
			br, err := count.BruteForceCompletions(db, q, nil)
			bruteTime := time.Since(t1)
			if err != nil {
				return failf("E-FIG-COMP-UNI", "scaling comp uniform", err)
			}
			if ex.Cmp(br) != 0 {
				rows = append(rows, fmt.Sprintf("n=%d: MISMATCH exact=%v brute=%v", n, ex, br))
				ok = false
				continue
			}
			rows = append(rows, fmt.Sprintf("n=%d: exact %v, brute %v (counts agree)", n, exactTime.Round(time.Microsecond), bruteTime.Round(time.Microsecond)))
		} else {
			rows = append(rows, fmt.Sprintf("n=%d: exact %v, brute skipped (%v valuations)", n, exactTime.Round(time.Microsecond), total))
		}
	}
	return Report{
		ID:         "E-FIG-COMP-UNI",
		Title:      "Scaling: Theorem 4.6 FP algorithm vs brute force (#Compu)",
		PaperClaim: "polynomial exact completion counting where brute force is exponential",
		Measured:   strings.Join(rows, "\n    "),
		Pass:       ok,
	}
}

// NoFPRASGadgetExperiment (E-FIG-NOFPRAS) demonstrates why completion
// counting resists approximation: the sampling lower bound cannot separate
// the 7-completion and 8-completion gadgets without solving 3-colorability.
func NoFPRASGadgetExperiment(cfg Config) Report {
	r := rand.New(rand.NewSource(cfg.Seed))
	colorable := reductions.ColorabilityGadget(graphs.Cycle(5))
	hard := reductions.ColorabilityGadget(graphs.Complete(4))
	samples := 300
	if cfg.Quick {
		samples = 60
	}
	ctx := context.Background()
	resC, err1 := approx.CompletionsLowerBound(ctx, colorable.DB, colorable.Query, samples, r)
	resH, err2 := approx.CompletionsLowerBound(ctx, hard.DB, hard.Query, samples, r)
	exactC, err3 := count.BruteForceCompletions(colorable.DB, colorable.Query, nil)
	exactH, err4 := count.BruteForceCompletions(hard.DB, hard.Query, nil)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return failf("E-FIG-NOFPRAS", "no-FPRAS gadget", fmt.Errorf("%v %v %v %v", err1, err2, err3, err4))
	}
	lbC, lbH := resC.Bound, resH.Bound
	pass := lbC.Cmp(exactC) <= 0 && lbH.Cmp(exactH) <= 0 &&
		exactC.Cmp(big.NewInt(8)) == 0 && exactH.Cmp(big.NewInt(7)) == 0
	return Report{
		ID:         "E-FIG-NOFPRAS",
		Title:      "Section 5.2: completion estimation carries no guarantee",
		PaperClaim: "an FPRAS for #Compu would decide 3-colorability (NP = RP)",
		Measured: fmt.Sprintf("exact: 8 vs 7; sampling lower bounds after %d samples: %v vs %v (bounds only — separating them requires hitting the unique colorable completion)",
			samples, lbC, lbH),
		Pass: pass,
	}
}

// Render renders reports as a text table.
func Render(reports []Report) string {
	var b strings.Builder
	for _, r := range reports {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-16s %s\n", status, r.ID, r.Title)
		if r.PaperClaim != "" {
			fmt.Fprintf(&b, "    paper:    %s\n", r.PaperClaim)
		}
		fmt.Fprintf(&b, "    measured: %s\n", r.Measured)
	}
	return b.String()
}
