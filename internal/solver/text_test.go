package solver

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
)

// TestCachedTextServesPreparedTexts pins the text memo: CachedText
// answers only for a text PrepareText has prepared and whose result is
// cached, each text with its own result; an isomorphic but different
// text misses until it is prepared itself.
func TestCachedTextServesPreparedTexts(t *testing.T) {
	s := NewSolver(WithWorkers(1))
	q := cq.MustParseBCQ("R(x, x)")
	ring4 := "uniform a b\nR(?1, ?2)\nR(?2, ?3)\nR(?3, ?4)\nR(?4, ?1)\n"
	renamed := "uniform a b\nR(?7, ?2)\nR(?2, ?3)\nR(?3, ?4)\nR(?4, ?7)\n"
	path3 := "uniform a b\nR(?1, ?2)\nR(?2, ?3)\nR(?3, ?4)\nR(?4, ?4)\n"

	count := func(text, want string) {
		t.Helper()
		if _, ok := s.CachedText(text, q, fingerprint.KindVal); ok {
			t.Fatalf("CachedText hit before %q was counted", text)
		}
		pdb, err := s.PrepareText(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pdb.Count(context.Background(), q, classify.Valuations)
		if err != nil {
			t.Fatal(err)
		}
		hit, ok := s.CachedText(text, q, fingerprint.KindVal)
		if !ok || !hit.Stats.CacheHit || hit.Count.String() != want || hit.Fingerprint != res.Fingerprint {
			t.Fatalf("CachedText(%q) = %+v, %v; want a hit with count %s and fingerprint %s", text, hit, ok, want, res.Fingerprint)
		}
		if _, ok := s.CachedText(text, q, fingerprint.KindComp); ok {
			t.Fatalf("CachedText(%q) hit a kind never counted", text)
		}
	}
	count(ring4, "14")
	count(path3, "16")

	if _, ok := s.CachedText(renamed, q, fingerprint.KindVal); ok {
		t.Fatal("CachedText hit a text that was never prepared")
	}
	pdb, err := s.PrepareText(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := pdb.Cached(q, fingerprint.KindVal); !ok || res.Count.String() != "14" {
		t.Fatalf("renamed ring: Cached = %+v, %v; want the ring's count 14", res, ok)
	}
	if res, ok := s.CachedText(renamed, q, fingerprint.KindVal); !ok || res.Count.String() != "14" {
		t.Fatalf("renamed ring after PrepareText: CachedText = %+v, %v; want 14", res, ok)
	}
	if n := s.Metrics().TextEntries; n != 3 {
		t.Fatalf("text memo holds %d entries, want 3", n)
	}
}

// TestPrepareTextRemembersOnlyPreparedTexts: a text that does not parse
// is a *ParseError, one that does not prepare a plain error, and neither
// enters the memo; the memo is bounded by the cache size.
func TestPrepareTextRemembersOnlyPreparedTexts(t *testing.T) {
	s := NewSolver(WithCacheSize(2))
	var pe *ParseError
	if _, err := s.PrepareText("uniform a b\nR(?1,\n"); !errors.As(err, &pe) {
		t.Fatalf("unparseable text: error %v, want a *ParseError", err)
	}
	if _, err := s.PrepareText("dom ?1 a\nR(?1, ?2)\n"); err == nil || errors.As(err, &pe) {
		t.Fatalf("text with a null lacking a domain: error %v, want a preparation error", err)
	}
	if n := s.Metrics().TextEntries; n != 0 {
		t.Fatalf("text memo holds %d entries after failures, want 0", n)
	}
	for _, text := range []string{"uniform a\nR(?1)\n", "uniform a\nR(?2)\n", "uniform a\nS(?1)\n"} {
		if _, err := s.PrepareText(text); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Metrics().TextEntries; n != 2 {
		t.Fatalf("text memo of a 2-entry solver holds %d entries", n)
	}
}

// randomFormQuery draws a query of one of the shapes the query-form memo
// sees: a BCQ, a UCQ, a BCQ with inequalities, or one it cannot encode
// and computes the form of on every call — a negation, TRUE as a value
// or a pointer, or an opaque cq.Func.
func randomFormQuery(r *rand.Rand) cq.Query {
	vars := []string{"x", "y", "z", "w", "xy"}
	bcq := func() *cq.BCQ {
		arity := map[string]int{"R": 2, "S": 1, "T": 2, "U": 3}
		rels := []string{"R", "S", "T", "U"}
		q := &cq.BCQ{}
		for i := 1 + r.Intn(4); i > 0; i-- {
			rel := rels[r.Intn(len(rels))]
			a := cq.Atom{Rel: rel}
			for j := 0; j < arity[rel]; j++ {
				a.Vars = append(a.Vars, vars[r.Intn(len(vars))])
			}
			q.Atoms = append(q.Atoms, a)
		}
		return q
	}
	switch r.Intn(8) {
	case 0, 1, 2:
		return bcq()
	case 3:
		u := &cq.UCQ{}
		for i := 1 + r.Intn(3); i > 0; i-- {
			u.Disjuncts = append(u.Disjuncts, bcq())
		}
		return u
	case 4:
		q := &cq.BCQNeq{Base: bcq()}
		for i := r.Intn(3); i > 0; i-- {
			q.Diffs = append(q.Diffs, [2]string{vars[r.Intn(len(vars))], vars[r.Intn(len(vars))]})
		}
		return q
	case 5:
		return &cq.Negation{Inner: bcq()}
	case 6:
		if r.Intn(2) == 0 {
			return cq.Tautology{}
		}
		return &cq.Tautology{}
	default:
		return &cq.Func{Name: fmt.Sprintf("f%d", r.Intn(4)), F: func(*core.Instance) bool { return true }}
	}
}

// TestQueryFormMemoMatchesFingerprint: the memoized canonical form of
// every query equals fingerprint.Query's, on a miss, on a hit, after the
// query's entry was evicted, and for the queries the memo cannot encode.
// The draws include renamed and re-parsed copies of one query, which
// share a form, and outnumber the memo's bound.
func TestQueryFormMemoMatchesFingerprint(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var queries []cq.Query
	for len(queries) < 4*queryFormMemoSize {
		q := randomFormQuery(r)
		queries = append(queries, q)
		if c, err := cq.Parse(q.String()); err == nil {
			queries = append(queries, c)
		}
		if b, ok := q.(*cq.BCQ); ok {
			renamed := b.Clone()
			for _, a := range renamed.Atoms {
				for j, v := range a.Vars {
					a.Vars[j] = v + "1"
				}
			}
			queries = append(queries, renamed)
		}
	}
	s := NewSolver()
	check := func(pass string, q cq.Query) {
		t.Helper()
		if got, want := s.canonicalQuery(q), fingerprint.Query(q); got != want {
			t.Fatalf("%s: the memo's form of %v is %q, fingerprint.Query's %q", pass, q, got, want)
		}
	}
	for _, q := range queries {
		check("first pass", q)
		check("repeat", q)
	}
	for i := len(queries) - 1; i >= 0; i-- {
		check("reverse pass", queries[i])
	}
	if n := s.forms.len(); n != queryFormMemoSize {
		t.Fatalf("the memo holds %d forms, want its bound %d", n, queryFormMemoSize)
	}
}

// countQueryForms makes queryForm count its calls until the test ends.
func countQueryForms(t *testing.T) *atomic.Int64 {
	var calls atomic.Int64
	orig := queryForm
	queryForm = func(q cq.Query) string {
		calls.Add(1)
		return orig(q)
	}
	t.Cleanup(func() { queryForm = orig })
	return &calls
}

// TestWarmCallsCanonicalizeOnce: the call sequence of a live recount
// (Cached, Explain, CountWith) and every other entry point that
// fingerprints a query canonicalize an encodable query once per distinct
// text: the first call computes its form, and no later call does,
// across writes, a re-parsed copy of the query and a second session of
// the solver. An opaque query is canonicalized by every call.
func TestWarmCallsCanonicalizeOnce(t *testing.T) {
	calls := countQueryForms(t)
	ctx := context.Background()
	s := NewSolver(WithWorkers(1))
	p, err := s.Prepare(componentsDB([]int{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	text := componentsQuery(3).String()
	sequence := func(p *PreparedDB, q cq.Query) {
		t.Helper()
		p.Cached(q, fingerprint.KindVal)
		if _, err := p.Explain(q, classify.Valuations); err != nil {
			t.Fatal(err)
		}
		if _, err := p.CountWith(ctx, q, classify.Valuations, &count.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	sequence(p, cq.MustParse(text))
	if n := calls.Load(); n != 1 {
		t.Fatalf("the first sequence canonicalized %d times, want 1", n)
	}
	for i := 0; i < 4; i++ {
		g := core.Const(fmt.Sprintf("g%d", i))
		if err := p.AddFact("C0", g, g); err != nil {
			t.Fatal(err)
		}
		sequence(p, cq.MustParse(text))
	}
	q := cq.MustParse(text)
	p.Fingerprint(q, fingerprint.KindComp)
	if _, err := p.BruteCount(ctx, q, classify.Valuations, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Certain(ctx, q); err != nil {
		t.Fatal(err)
	}
	s.CachedText("uniform a\nC0(?1, ?1)\n", q, fingerprint.KindVal)
	other, err := s.Prepare(componentsDB([]int{2, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	sequence(other, q)
	if n := calls.Load(); n != 1 {
		t.Fatalf("warm calls canonicalized %d times in all, want the first call's 1", n)
	}

	opaque := &cq.Func{Name: "any", F: func(*core.Instance) bool { return true }}
	p.Fingerprint(opaque, fingerprint.KindVal)
	p.Fingerprint(opaque, fingerprint.KindVal)
	if n := calls.Load(); n != 3 {
		t.Fatalf("two fingerprints of an opaque query canonicalized %d times, want 2", n-1)
	}
}

// TestEntryPointsUseQueryFormMemo: every entry point that fingerprints
// a query takes its canonical form from the memo. A form planted in the
// memo under a query's encoding shows in each call's fingerprint, in the
// plan cache key Explain shares with CountWith, and in the result-cache
// lookups of Cached and CachedText.
func TestEntryPointsUseQueryFormMemo(t *testing.T) {
	ctx := context.Background()
	s := NewSolver(WithWorkers(1))
	text := "uniform a b\nR(?1, ?2)\nR(?2, ?1)\n"
	p, err := s.PrepareText(text)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseBCQ("R(x, x)")
	enc, _, _ := appendQuery(nil, nil, q)
	s.forms.add(string(enc), "planted")
	want := func(kind fingerprint.Kind) string { return fingerprint.OfDigest(p.digest, "planted", kind) }

	if got := p.Fingerprint(q, fingerprint.KindVal); got != want(fingerprint.KindVal) {
		t.Fatal("Fingerprint computed the form")
	}
	res, err := p.CountWith(ctx, q, classify.Valuations, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != want(fingerprint.KindVal) {
		t.Fatal("CountWith computed the form")
	}
	if pl, err := p.Explain(q, classify.Valuations); err != nil || pl != res.Plan {
		t.Fatalf("Explain did not find the plan CountWith cached under the planted form (%v)", err)
	}
	if hit, ok := p.Cached(q, fingerprint.KindVal); !ok || hit.Fingerprint != want(fingerprint.KindVal) {
		t.Fatal("Cached computed the form")
	}
	if hit, ok := s.CachedText(text, q, fingerprint.KindVal); !ok || hit.Fingerprint != want(fingerprint.KindVal) {
		t.Fatal("CachedText computed the form")
	}
	if res, err := p.BruteCount(ctx, q, classify.Completions, nil); err != nil || res.Fingerprint != want(fingerprint.KindComp) {
		t.Fatalf("BruteCount computed the form (%v)", err)
	}
	if res, err := p.Certain(ctx, q); err != nil || res.Fingerprint != want(fingerprint.KindCertain) {
		t.Fatalf("Certain computed the form (%v)", err)
	}
}

// TestConcurrentQueryForms: sessions of one solver fingerprint, peek at
// and count queries from goroutines at once (run under -race in CI), with
// more distinct queries than the memo holds, so lookups race with
// additions and evictions; every fingerprint is the one computed without
// the memo.
func TestConcurrentQueryForms(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var queries []cq.Query
	for len(queries) < 4*queryFormMemoSize {
		queries = append(queries, randomFormQuery(r))
	}
	s := NewSolver(WithWorkers(1))
	db := seedDB(0)
	d := fingerprint.DatabaseDigest(db)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		p, err := s.Prepare(db.Clone())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queries {
				q := queries[(i*7+w*331)%len(queries)]
				if got, want := p.Fingerprint(q, fingerprint.KindVal), fingerprint.OfDigest(d, fingerprint.Query(q), fingerprint.KindVal); got != want {
					t.Errorf("worker %d: %v fingerprints as %s, want %s", w, q, got, want)
					return
				}
				p.Cached(q, fingerprint.KindVal)
				if i%64 == 0 {
					if _, err := p.Count(context.Background(), q, classify.Valuations); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTextKeyHashesInPlace: a text's memo key is the SHA-256 of its
// bytes, computed without copying the text: the key is the only
// allocation, however long the text.
func TestTextKeyHashesInPlace(t *testing.T) {
	text := strings.Repeat("R(?1, a)\n", 1<<13)
	if got, want := textKey(text), sha256.Sum256([]byte(text)); got != string(want[:]) {
		t.Fatal("textKey is not the SHA-256 of the text")
	}
	var key string
	if allocs := testing.AllocsPerRun(20, func() { key = textKey(text) }); allocs != 1 {
		t.Fatalf("textKey of a %d-byte text allocates %v times, want 1", len(text), allocs)
	}
	_ = key
}
