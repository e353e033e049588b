package solver

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// Tests of the one cache rule: every session cache keys by the call's
// normalized planning options (guard, engine variant), so a call never
// reads or writes an entry another option set produced.

// variantDB is R(?1, ?2), R(?2, ?3), S(?3), S(a) over {a, b, c}: 27
// valuations. variantQuery's inequality keeps it off the cylinder route,
// so it sweeps, and it compiles to bitset membership in a cost-chosen
// atom order unless an escape hatch pins the other variant.
func variantDB() *core.Database {
	db := core.NewDatabase()
	for n := core.NullID(1); n <= 3; n++ {
		if err := db.SetDomain(n, []string{"a", "b", "c"}); err != nil {
			panic(err)
		}
	}
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("R", core.Null(2), core.Null(3))
	db.MustAddFact("S", core.Null(3))
	db.MustAddFact("S", core.Const("a"))
	return db
}

var variantQuery = cq.MustParse("S(z) ∧ R(x, y) ∧ R(y, z) ∧ x ≠ z")

// sweepNodes returns the plan's sweep nodes.
func sweepNodes(pl *plan.Plan) []*plan.Node {
	var out []*plan.Node
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n.Op == plan.OpSweep {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(pl.Root)
	return out
}

// sweepRecord returns the accepted decision of the plan's only sweep
// node, which records the engine variant it compiled.
func sweepRecord(t *testing.T, pl *plan.Plan) string {
	t.Helper()
	nodes := sweepNodes(pl)
	if len(nodes) != 1 {
		t.Fatalf("plan %s has %d sweep nodes, want 1", pl.Method(), len(nodes))
	}
	d := nodes[0].Decisions
	return d[len(d)-1].Reason
}

// hatched is the pre-optimization engine variant: scalar membership and
// the query's own atom order.
var hatched = &count.Options{DisableBitsets: true, SyntacticOrder: true}

const hatchedRecord = "[scalar membership, syntactic atom order]"

// TestBruteCountHonorsEngineVariant: a forced sweep compiles the engine
// variant its options ask for, for both kinds.
func TestBruteCountHonorsEngineVariant(t *testing.T) {
	pdb, err := NewSolver(WithWorkers(1)).Prepare(variantDB())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []classify.CountingKind{classify.Valuations, classify.Completions} {
		res, err := pdb.BruteCount(context.Background(), variantQuery, kind, hatched)
		if err != nil {
			t.Fatal(err)
		}
		if got := sweepRecord(t, res.Plan); !strings.HasSuffix(got, hatchedRecord) {
			t.Errorf("%v: hatched BruteCount records %q, want %q", kind, got, hatchedRecord)
		}
	}
}

// TestVariantCallsCacheUnderOwnKey: calls under other planning options
// than the solver's are cached like default calls, under keys of their
// own — an engine variant's results and plans, and a tightened guard's
// plans, which a delta rebuilds under that same guard.
func TestVariantCallsCacheUnderOwnKey(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(WithWorkers(1))
	pdb, err := s.Prepare(variantDB())
	if err != nil {
		t.Fatal(err)
	}
	q := variantQuery

	first, err := pdb.CountWith(ctx, q, classify.Valuations, hatched)
	if err != nil {
		t.Fatal(err)
	}
	second, err := pdb.CountWith(ctx, q, classify.Valuations, hatched)
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Computations != 1 || !second.Stats.CacheHit {
		t.Fatalf("repeated hatched count: %d computations, second cache hit %v; want 1 and true",
			m.Computations, second.Stats.CacheHit)
	}
	if got := sweepRecord(t, second.Plan); !strings.HasSuffix(got, hatchedRecord) {
		t.Fatalf("hatched count records %q, want %q", got, hatchedRecord)
	}

	def, err := pdb.Count(ctx, q, classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if def.Stats.CacheHit || s.Metrics().Computations != 2 {
		t.Fatal("default count was answered by the hatched entry")
	}
	if got := sweepRecord(t, def.Plan); !strings.Contains(got, "[bitset membership, cost") {
		t.Fatalf("default count records %q, want bitset membership in cost order", got)
	}
	if def.Count.Cmp(first.Count) != 0 {
		t.Fatalf("default count %v, hatched %v", def.Count, first.Count)
	}

	tight := &count.Options{MaxValuations: 4} // below the 27-valuation sweep
	p1, err := pdb.ExplainWith(q, classify.Valuations, tight)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pdb.ExplainWith(q, classify.Valuations, tight)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("ExplainWith under a tightened guard rebuilt its plan")
	}
	if p1 == def.Plan {
		t.Fatal("ExplainWith under a tightened guard returned the default plan")
	}
	// Even a fact on a relation the query does not mention empties the
	// plan cache; the rebuilt plan is judged against its own guard.
	if err := pdb.AddFact("T", core.Const("a")); err != nil {
		t.Fatal(err)
	}
	p3, err := pdb.ExplainWith(q, classify.Valuations, tight)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("the delta kept the tightened plan built at the old version")
	}
	cost := sweepNodes(p3)[0].Cost
	if !cost.ExceedsGuard || !strings.HasSuffix(cost.Note, "EXCEEDS the guard of 4") {
		t.Fatalf("rebuilt tightened plan: exceeds=%v note %q, want the guard of 4", cost.ExceedsGuard, cost.Note)
	}
}

// TestConcurrentVariantCallsKeepTheirGuards: with caching off, identical
// concurrent calls still share single-flight computations, but only
// under one key: a tightened call never joins a default call's flight
// and returns a count its own guard refuses.
func TestConcurrentVariantCallsKeepTheirGuards(t *testing.T) {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i <= 12; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(i%12+1)))
	}
	pdb, err := NewSolver(WithCacheSize(-1), WithWorkers(1)).Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("R(x, y) ∧ x ≠ y") // a 2^12-valuation sweep
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		tight := i%2 == 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			var opts *count.Options
			if tight {
				opts = &count.Options{MaxValuations: 1 << 10}
			}
			_, err := pdb.CountWith(context.Background(), q, classify.Valuations, opts)
			switch {
			case tight && err == nil:
				t.Error("a tightened call returned a count its guard refuses")
			case !tight && err != nil:
				t.Errorf("default call failed: %v", err)
			}
		}()
	}
	wg.Wait()
}

// fuzzQueries are the queries FuzzCachedMatchesFresh asks: an
// inequality and variantQuery, which sweep; a union, which takes the
// cylinder route; and a union whose five-atom R chain has 2^5 = 32
// cylinders over variantDB, past the cap of inclusion–exclusion: it
// sweeps, as a factor of its own once S(?3) is removed.
var fuzzQueries = []cq.Query{
	cq.MustParse("R(x, y) ∧ x ≠ y"),
	variantQuery,
	cq.MustParse("R(x, x) | S(x)"),
	cq.MustParse("R(x, y) ∧ R(y, z) ∧ R(z, u) ∧ R(u, v) ∧ R(v, w) | S(x)"),
}

// FuzzCachedMatchesFresh drives one shared session through a sequence of
// counts, forced sweeps, certainty checks and fact deltas, each under
// random per-call overrides of the guard (below, at or above the
// solver's) and the engine variant. Every answer must equal the same
// call on a fresh, uncached session over the current database: the same
// count or verdict, and an error exactly when the reference errors. A
// plan under an escape hatch must record that variant.
//
// cfg selects the solver's guard; each pair of ops bytes is one call
// (what, on which query or fact) and its overrides.
func FuzzCachedMatchesFresh(f *testing.F) {
	// A loosened-guard BruteCount must not answer a default count that
	// fails the solver's guard of 2.
	f.Add(byte(3), []byte{2, 3, 0, 0})
	// A hatched BruteCount must compile the variant it asked for.
	f.Add(byte(2), []byte{10, 12})
	// A loosened-guard count's memoized factors must not answer a default
	// count (remove S(?3), so the chain union factorizes into a swept
	// chain and S(x), then count it loosened and by default).
	f.Add(byte(12), []byte{86, 48, 88, 3, 88, 48})
	f.Add(byte(5), []byte{0, 36, 8, 5, 5, 0, 0, 36, 4, 1, 6, 0, 3, 14, 17, 23})
	f.Fuzz(func(t *testing.T, cfg byte, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		guard := []int64{2, 64, 0}[cfg%3]
		config := []Option{WithMaxValuations(guard), WithWorkers(1)}
		pdb, err := NewSolver(config...).Prepare(variantDB())
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewSolver(append(config, WithCacheSize(-1))...)
		solverGuard := guard
		if solverGuard == 0 {
			solverGuard = count.DefaultMaxValuations
		}
		ctx := context.Background()
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			opts := &count.Options{
				MaxValuations:  []int64{0, max(1, solverGuard/2), solverGuard, solverGuard * 64}[arg%4],
				DisableBitsets: (arg/4)&1 != 0,
				SyntacticOrder: (arg/4)&2 != 0,
			}
			q := fuzzQueries[int(op/8)%len(fuzzQueries)]
			switch op % 8 {
			case 5:
				rel, args := fuzzFact(op / 8)
				if err := pdb.AddFact(rel, args...); err != nil {
					t.Fatal(err)
				}
				continue
			case 6:
				if facts := pdb.Database().Facts(); len(facts) > 0 {
					f := facts[int(op/8)%len(facts)]
					pdb.RemoveFact(f.Rel, f.Args...)
				}
				continue
			}
			db, err := core.ParseDatabaseString(pdb.Database().String())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := fresh.Prepare(db)
			if err != nil {
				t.Fatal(err)
			}
			call := func(p *PreparedDB) (*Result, error) {
				switch op % 8 {
				case 1:
					return p.CountWith(ctx, q, classify.Completions, opts)
				case 2:
					return p.BruteCount(ctx, q, classify.Valuations, opts)
				case 3:
					return p.BruteCount(ctx, q, classify.Completions, opts)
				case 4:
					return p.CertainWith(ctx, q, opts)
				default:
					return p.CountWith(ctx, q, classify.Valuations, opts)
				}
			}
			got, gerr := call(pdb)
			want, werr := call(ref)
			where := func() string {
				return fmt.Sprintf("op %d on %v (guard %d, no bitsets %v, syntactic %v) over\n%s",
					op%8, q, opts.MaxValuations, opts.DisableBitsets, opts.SyntacticOrder, db)
			}
			switch {
			case (gerr != nil) != (werr != nil):
				t.Fatalf("%s: session error %v, fresh error %v", where(), gerr, werr)
			case gerr != nil:
				continue
			case got.Count != nil && got.Count.Cmp(want.Count) != 0:
				t.Fatalf("%s: session count %v, fresh %v", where(), got.Count, want.Count)
			case got.Holds != nil && *got.Holds != *want.Holds:
				t.Fatalf("%s: session verdict %v, fresh %v", where(), *got.Holds, *want.Holds)
			}
			if got.Plan == nil {
				continue
			}
			for _, n := range sweepNodes(got.Plan) {
				rec := n.Decisions[len(n.Decisions)-1].Reason
				if opts.DisableBitsets && !strings.Contains(rec, "[scalar membership") ||
					opts.SyntacticOrder && !strings.Contains(rec, "syntactic atom order]") {
					t.Fatalf("%s: plan records %q", where(), rec)
				}
			}
		}
	})
}

// fuzzFact picks the fact an AddFact op of FuzzCachedMatchesFresh adds:
// an R or S fact over the constants and the nulls of variantDB.
func fuzzFact(sel byte) (string, []core.Value) {
	vals := []core.Value{core.Const("a"), core.Const("b"), core.Null(1), core.Null(2), core.Null(3)}
	if sel%3 == 0 {
		return "S", []core.Value{vals[int(sel/3)%len(vals)]}
	}
	return "R", []core.Value{vals[int(sel/3)%len(vals)], vals[int(sel/15)%len(vals)]}
}
