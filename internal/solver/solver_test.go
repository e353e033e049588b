package solver

import (
	"context"
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// figure1DB builds the running example of the paper (Example 2.2).
func figure1DB() *core.Database {
	db := core.NewDatabase()
	db.MustAddFact("S", core.Const("a"), core.Const("b"))
	db.MustAddFact("S", core.Null(1), core.Const("a"))
	db.MustAddFact("S", core.Const("a"), core.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b"})
	return db
}

func TestPreparedCountMatchesDispatcher(t *testing.T) {
	db := figure1DB()
	q := cq.MustParse("S(x, x)")
	pdb, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pdb.Count(context.Background(), q, classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	want, method, err := count.CountValuations(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count.Cmp(want) != 0 {
		t.Fatalf("prepared count %v, dispatcher %v", res.Count, want)
	}
	if res.Method != method {
		t.Fatalf("prepared method %q, dispatcher %q", res.Method, method)
	}
	if res.Plan == nil || res.Fingerprint == "" {
		t.Fatalf("result lacks plan/fingerprint: %+v", res)
	}
	if res.Stats.CacheHit {
		t.Fatal("first call reported a cache hit")
	}
	if res.Stats.Workers <= 0 {
		t.Fatalf("stats workers = %d", res.Stats.Workers)
	}
}

// TestPrepareReuseNeverChangesCounts interleaves many queries against one
// prepared database, twice, and checks that the second (cache-served)
// round is bit-identical to the first.
func TestPrepareReuseNeverChangesCounts(t *testing.T) {
	db := figure1DB()
	s := NewSolver()
	pdb, err := s.Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"S(x, x)", "S(x, y)", "S(a, x)", "S(x, y) ∧ S(y, z)", "!S(x, x)", "TRUE"}
	kinds := []classify.CountingKind{classify.Valuations, classify.Completions}
	first := make(map[string]*big.Int)
	for round := 0; round < 2; round++ {
		for _, qs := range queries {
			q := cq.MustParse(qs)
			for _, kind := range kinds {
				res, err := pdb.Count(context.Background(), q, kind)
				if err != nil {
					t.Fatalf("round %d %s/%v: %v", round, qs, kind, err)
				}
				key := qs + "/" + kind.String()
				if round == 0 {
					first[key] = res.Count
					continue
				}
				if res.Count.Cmp(first[key]) != 0 {
					t.Errorf("%s changed across cache reuse: %v then %v", key, first[key], res.Count)
				}
				if !res.Stats.CacheHit {
					t.Errorf("%s second round was not a cache hit", key)
				}
			}
		}
	}
	m := s.Metrics()
	if m.CacheHits == 0 || m.Computations == 0 {
		t.Errorf("metrics did not move: %+v", m)
	}
	// Certain/possible share the cache under their own fingerprint kinds.
	q := cq.MustParse("S(x, x)")
	c1, err := pdb.Certain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := pdb.Certain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if *c1.Holds != *c2.Holds || !c2.Stats.CacheHit {
		t.Errorf("certain verdicts across cache: %v/%v cacheHit=%v", *c1.Holds, *c2.Holds, c2.Stats.CacheHit)
	}
}

// TestPlanCacheSharesAcrossIsomorphicQueries: renamed variables share one
// plan entry.
func TestPlanCacheSharesAcrossIsomorphicQueries(t *testing.T) {
	pdb, err := NewSolver().Prepare(figure1DB())
	if err != nil {
		t.Fatal(err)
	}
	p1, err := pdb.Explain(cq.MustParse("S(x, y) ∧ S(y, z)"), classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := pdb.Explain(cq.MustParse("S(u, v) ∧ S(v, w)"), classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("isomorphic queries did not share one cached plan")
	}
}

// TestCountOptionsKeepsCallerKnobs: a call's effective options are the
// caller's, field for field, with the solver's guard and worker width
// where the caller left them zero, and the call's ctx over the caller's
// Context.
func TestCountOptionsKeepsCallerKnobs(t *testing.T) {
	type ctxKey struct{}
	s := NewSolver(WithWorkers(3), WithMaxValuations(1000))
	callerCtx := context.WithValue(context.Background(), ctxKey{}, "caller")
	opts := &count.Options{
		MaxValuations:  7,
		Workers:        2,
		Context:        callerCtx,
		Progress:       func(int, int) {},
		Checkpoint:     count.NewCheckpointer(1, nil),
		DisableBitsets: true,
		SyntacticOrder: true,
		Phases:         &count.PhaseTimes{},
	}
	eff, want := reflect.ValueOf(*s.countOptions(nil, opts)), reflect.ValueOf(*opts)
	for i := range want.NumField() {
		got, w := eff.Field(i), want.Field(i)
		if w.IsZero() {
			t.Fatalf("set every field of count.Options in this test: %s is zero", want.Type().Field(i).Name)
		}
		if w.Kind() == reflect.Func && got.Pointer() != w.Pointer() || w.Kind() != reflect.Func && !reflect.DeepEqual(got.Interface(), w.Interface()) {
			t.Errorf("%s: got %v, want the caller's %v", want.Type().Field(i).Name, got, w)
		}
	}
	callCtx := context.WithValue(context.Background(), ctxKey{}, "call")
	if eff := s.countOptions(callCtx, opts); eff.Context != callCtx {
		t.Errorf("the call's ctx must win over the caller's Context")
	}
	if eff := s.countOptions(nil, nil); eff.MaxValuations != 1000 || eff.Workers != 3 || eff.Context != context.Background() {
		t.Errorf("defaults: %+v, want the solver's guard and workers under the background context", eff)
	}
}

// TestCountWithHonorsTightenedGuard: a per-call guard below the swept
// space must fail even when a default-knob result is cached, because the
// tightened call reads only entries of its own planning options.
func TestCountWithHonorsTightenedGuard(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b", "c"})
	pdb, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("R(x, y) ∧ x ≠ y") // inequality: forced onto the sweep
	ctx := context.Background()
	if _, err := pdb.Count(ctx, q, classify.Valuations); err != nil {
		t.Fatalf("default-budget count failed: %v", err)
	}
	if _, err := pdb.CountWith(ctx, q, classify.Valuations, &count.Options{MaxValuations: 3}); err == nil {
		t.Fatal("tightened guard was ignored (answered from cache?)")
	}
}

// TestLoosenedGuardDoesNotPoisonCache: a success computed under a
// RAISED per-call guard — by a count or a forced sweep — must not be
// stored where default-knob calls read, or they would return a count
// where the pre-session API deterministically failed its guard.
func TestLoosenedGuardDoesNotPoisonCache(t *testing.T) {
	db := core.NewDatabase()
	db.MustAddFact("R", core.Null(1), core.Null(2))
	db.MustAddFact("R", core.Null(2), core.Null(3))
	db.SetDomain(1, []string{"a", "b", "c"})
	db.SetDomain(2, []string{"a", "b", "c"})
	db.SetDomain(3, []string{"a", "b", "c"})
	// Solver guard of 2 valuations: the 27-valuation sweep always fails.
	pdb, err := NewSolver(WithMaxValuations(2)).Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParse("R(x, y) ∧ x ≠ y")
	ctx := context.Background()
	if _, err := pdb.Count(ctx, q, classify.Valuations); err == nil {
		t.Fatal("default-knob count beat a guard of 2")
	}
	// Loosened per-call guard succeeds...
	if _, err := pdb.CountWith(ctx, q, classify.Valuations, &count.Options{MaxValuations: 1 << 20}); err != nil {
		t.Fatalf("loosened-guard count failed: %v", err)
	}
	// ...and the default path must STILL fail its guard afterwards.
	if _, err := pdb.Count(ctx, q, classify.Valuations); err == nil {
		t.Fatal("loosened-guard success leaked into the default-knob cache")
	}
	// The same holds for a loosened-guard forced sweep.
	if _, err := pdb.BruteCount(ctx, q, classify.Valuations, &count.Options{MaxValuations: 1 << 20}); err != nil {
		t.Fatalf("loosened-guard BruteCount failed: %v", err)
	}
	if _, err := pdb.Count(ctx, q, classify.Valuations); err == nil {
		t.Fatal("loosened-guard BruteCount leaked into the default-knob cache")
	}
}

func TestCompletionsStreaming(t *testing.T) {
	db := figure1DB()
	pdb, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := cq.MustParse("S(x, x)")

	// The stream yields exactly #Comp(q) distinct satisfying completions.
	want, _, err := count.CountCompletions(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []*core.Instance
	for inst, err := range pdb.Completions(ctx, q) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, inst)
	}
	if int64(len(streamed)) != want.Int64() {
		t.Fatalf("streamed %d completions, #Comp = %v", len(streamed), want)
	}
	// All satisfy q, and all are pairwise distinct.
	for i, inst := range streamed {
		if !q.Eval(inst) {
			t.Errorf("streamed completion %d does not satisfy q", i)
		}
	}

	// Streaming all completions (TRUE) matches EnumerateCompletions.
	all, err := count.EnumerateCompletions(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range pdb.Completions(ctx, cq.Tautology{}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(all) {
		t.Fatalf("streamed %d of %d completions", n, len(all))
	}

	// Early break stops the stream without yielding an error pair.
	n = 0
	for _, err := range pdb.Completions(ctx, cq.Tautology{}) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("early break consumed %d", n)
	}

	// A cancelled context surfaces as the final error pair.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	sawErr := false
	for inst, err := range pdb.Completions(cancelled, cq.Tautology{}) {
		if err != nil {
			sawErr = true
			if inst != nil {
				t.Error("error pair carried an instance")
			}
		}
	}
	if !sawErr {
		t.Error("cancelled stream yielded no error")
	}
}

func TestMuThroughSolver(t *testing.T) {
	// Over the all-null table {S(⊥1,⊥2)}, µ_k(S(x,x)) = 1/k — including
	// on tables whose nulls carry no domains (Section 7 setting).
	free := core.NewDatabase()
	free.MustAddFact("S", core.Null(1), core.Null(2))
	res, err := NewSolver().Mu(context.Background(), free, cq.MustParse("S(x, x)"), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio.Cmp(big.NewRat(1, 3)) != 0 {
		t.Fatalf("µ_3 = %v, want 1/3", res.Ratio)
	}
	if res.Count == nil || res.Count.Method == "" {
		t.Fatalf("µ result lacks its counting Result: %+v", res)
	}
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
}

func TestAllCompletionsCarriesMethod(t *testing.T) {
	pdb, err := NewSolver().Prepare(figure1DB())
	if err != nil {
		t.Fatal(err)
	}
	res, err := pdb.AllCompletions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := count.BruteForceAllCompletions(figure1DB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count.Cmp(want) != 0 {
		t.Fatalf("all completions %v, want %v", res.Count, want)
	}
	if res.Method == "" || res.Plan == nil {
		t.Fatalf("all-completions result lacks method/plan: %+v", res)
	}
}

// TestCachedPlansAreStrippedButEquivalent: the result cache retains
// payload-stripped plans (no compiled engines), and those must render
// identically to the live plan. A stripped plan does not execute: the
// executor refuses its engine-less sweep node.
func TestCachedPlansAreStrippedButEquivalent(t *testing.T) {
	db := figure1DB()
	pdb, err := NewSolver().Prepare(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := cq.MustParse("S(x, y) ∧ x ≠ y") // inequality → sweep node with engine
	fresh, err := pdb.Count(ctx, q, classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := pdb.Count(ctx, q, classify.Valuations)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Stats.CacheHit {
		t.Fatal("second call was not a cache hit")
	}
	if cached.Plan.Root.Engine != nil {
		t.Error("cached plan still carries a compiled engine")
	}
	if cached.Plan.Database() != nil {
		t.Error("cached plan still pins the database it was planned on")
	}
	if got, want := cached.Plan.Render(), fresh.Plan.Render(); got != want {
		t.Errorf("stripped plan renders differently:\n--- cached ---\n%s--- fresh ---\n%s", got, want)
	}
	if n, _, err := count.ExecutePlan(db, cached.Plan, nil, nil, nil); err == nil || !strings.Contains(err.Error(), "no execution payload") {
		t.Errorf("stripped plan executed to %v (err %v), want a missing-payload error", n, err)
	}
}

// TestPlanCacheIsBounded: a session with endless distinct queries keeps
// at most defaultPlanCacheSize compiled plans.
func TestPlanCacheIsBounded(t *testing.T) {
	pdb, err := NewSolver().Prepare(figure1DB())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < defaultPlanCacheSize+50; i++ {
		// Distinct canonical forms via distinct relation names; each plans
		// in microseconds (single-occurrence, Theorem 3.6).
		qs := fmt.Sprintf("Q%d(x, y)", i)
		if _, err := pdb.Explain(cq.MustParse(qs), classify.Valuations); err != nil {
			t.Fatal(err)
		}
	}
	if n := pdb.plans.len(); n > defaultPlanCacheSize {
		t.Errorf("plan cache grew to %d entries (cap %d)", n, defaultPlanCacheSize)
	}
}

// TestLRUEviction exercises the cache bound directly (moved here with the
// cache from internal/server).
func TestLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.add("a", &Result{Count: big.NewInt(1)})
	c.add("b", &Result{Count: big.NewInt(2)})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.add("c", &Result{Count: big.NewInt(3)}) // "b" is now LRU and must go
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}
}

// TestFlightGroupShares exercises the single-flight group directly: N
// concurrent callers of one key run fn exactly once (moved here with the
// group from internal/server).
func TestFlightGroupShares(t *testing.T) {
	g := newFlightGroup()
	var calls int32
	var mu sync.Mutex
	gate := make(chan struct{})
	var wg sync.WaitGroup
	shared := 0
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, wasShared, err := g.do("k", func() (*Result, error) {
				<-gate
				mu.Lock()
				calls++
				mu.Unlock()
				return &Result{Count: big.NewInt(42)}, nil
			})
			if err != nil || res.Count.Int64() != 42 {
				t.Errorf("do: %v %+v", err, res)
			}
			if wasShared {
				mu.Lock()
				shared++
				mu.Unlock()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let all callers enqueue
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if shared != 7 {
		t.Fatalf("shared = %d, want 7", shared)
	}
}

// TestConcurrentSessionUse hammers one prepared database from many
// goroutines (exercised under -race in CI).
func TestConcurrentSessionUse(t *testing.T) {
	pdb, err := NewSolver().Prepare(figure1DB())
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"S(x, x)", "S(x, y)", "S(x, y) ∧ S(y, z)", "!S(x, x)"}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := cq.MustParse(queries[(w+i)%len(queries)])
				if _, err := pdb.Count(context.Background(), q, classify.Valuations); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
