package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
)

// serveJSON posts body (a value, or raw bytes) to path through h and
// returns the status and the response decoded into a generic map.
func serveJSON(t testing.TB, h http.Handler, method, path string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	raw, ok := body.([]byte)
	if !ok {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.Bytes(), err)
	}
	return rec.Code, out
}

// memoDB is a uniform 4-cycle over {a, b}: R(x, x) holds in all 16
// valuations but the 2 proper colourings, so its #Val is 14.
const memoDB = "uniform a b\nR(?1, ?2)\nR(?2, ?3)\nR(?3, ?4)\nR(?4, ?1)\n"

// TestRepeatedBodyServedFromTextMemo: resending a count body answers
// from the cache with the same JSON values, but for the cache flag and
// the duration, and leaves one text in the memo.
func TestRepeatedBodyServedFromTextMemo(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	for _, kind := range []string{KindVal, KindComp} {
		req := Request{Database: memoDB, Query: "R(x, x)", Kind: kind}
		code, first := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", req)
		if code != http.StatusOK || first["cached"] != nil {
			t.Fatalf("%s: first count: HTTP %d %v", kind, code, first)
		}
		code, second := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", req)
		if code != http.StatusOK || second["cached"] != true {
			t.Fatalf("%s: repeated count: HTTP %d %v", kind, code, second)
		}
		for _, m := range []map[string]interface{}{first, second} {
			delete(m, "cached")
			delete(m, "duration_ms")
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%s: repeated count differs:\nfirst  %v\nsecond %v", kind, first, second)
		}
	}
	if n := srv.Solver().Metrics().TextEntries; n != 1 {
		t.Fatalf("text memo holds %d entries, want 1", n)
	}
}

// TestInvalidDatabaseNeverMemoized: a database that does not parse is
// answered 400, and one that parses but does not prepare 422, both
// times, and neither enters the memo.
func TestInvalidDatabaseNeverMemoized(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	for _, c := range []struct {
		db   string
		code int
	}{
		{"uniform a b\nR(?1, \n", http.StatusBadRequest},
		{"dom ?1 a b\nR(?1, ?2)\n", http.StatusUnprocessableEntity}, // ?2 has no domain
	} {
		for i := 0; i < 2; i++ {
			code, out := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", Request{Database: c.db, Query: "R(x, x)"})
			if code != c.code || out["error"] == nil {
				t.Fatalf("%q, send %d: HTTP %d %v, want %d", c.db, i+1, code, out, c.code)
			}
		}
	}
	if n := srv.Solver().Metrics().TextEntries; n != 0 {
		t.Fatalf("text memo holds %d entries after invalid databases, want 0", n)
	}
}

// TestNegativeCacheSizeLeavesMemoEmpty: disabling the result cache
// disables the text memo with it.
func TestNegativeCacheSizeLeavesMemoEmpty(t *testing.T) {
	srv := New(Config{Workers: 1, CacheSize: -1})
	defer srv.Close()
	req := Request{Database: memoDB, Query: "R(x, x)"}
	for i := 0; i < 2; i++ {
		code, out := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", req)
		if code != http.StatusOK || out["cached"] != nil || out["count"] != "14" {
			t.Fatalf("send %d: HTTP %d %v, want an uncached count of 14", i+1, code, out)
		}
	}
	if m := srv.Solver().Metrics(); m.TextEntries != 0 || m.CacheEntries != 0 {
		t.Fatalf("caching disabled, but the memo holds %d texts and the cache %d results", m.TextEntries, m.CacheEntries)
	}
}

// TestTightenedBudgetServedFromWarmTextEntry: a request whose
// max_valuations is below its sweep fails on a cold text, and is
// answered from the warm default entry once a default request has
// prepared the same text.
func TestTightenedBudgetServedFromWarmTextEntry(t *testing.T) {
	srv := New(Config{Workers: 1, MaxValuations: 1 << 20})
	defer srv.Close()
	db := "uniform a b\nR(?1, ?2)\nR(?3, ?4)\nR(?5, ?6)\n"
	// Inequality defeats every fast path: a 64-valuation sweep.
	plain := Request{Database: db, Query: "R(x, y) ∧ x ≠ y"}
	tight := plain
	tight.MaxValuations = 4
	if code, out := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", tight); code != http.StatusUnprocessableEntity {
		t.Fatalf("tightened count on a cold text: HTTP %d %v, want 422", code, out)
	}
	code, warm := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", plain)
	if code != http.StatusOK {
		t.Fatalf("default count: HTTP %d %v", code, warm)
	}
	code, hit := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", tight)
	if code != http.StatusOK || hit["cached"] != true || hit["count"] != warm["count"] || hit["fingerprint"] != warm["fingerprint"] {
		t.Fatalf("tightened count after warm-up: HTTP %d %v, want the warm entry %v", code, hit, warm)
	}
}

// TestEmptyDatabaseSeesLiveWrites: requests without a database go to the
// live session and see its writes, while an inline copy of the text it
// was loaded from keeps its own, unchanged, answer.
func TestEmptyDatabaseSeesLiveWrites(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	text := "dom ?1 a b c\nS(a, b)\nS(?1, a)\n"
	if code, out := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/db", Request{Database: text}); code != http.StatusOK {
		t.Fatalf("POST /v1/db: HTTP %d %v", code, out)
	}
	count := func(db, want string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			code, out := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", Request{Database: db, Query: "S(x, x)"})
			if code != http.StatusOK || out["count"] != want {
				t.Fatalf("count on %q, send %d: HTTP %d %v, want %s", db, i+1, code, out, want)
			}
		}
	}
	count("", "1")
	count(text, "1")
	if code, out := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/facts", MutationRequest{Facts: []string{"S(c, c)"}}); code != http.StatusOK {
		t.Fatalf("POST /v1/facts: HTTP %d %v", code, out)
	}
	count("", "3")
	count(text, "1")
	if code, out := serveJSON(t, srv.Handler(), http.MethodDelete, "/v1/facts", MutationRequest{Facts: []string{"S(c, c)"}}); code != http.StatusOK {
		t.Fatalf("DELETE /v1/facts: HTTP %d %v", code, out)
	}
	count("", "1")
}

// TestSessionFingerprintTracksWrites: after each write to the live
// session, its fingerprints, and those on its count responses, equal
// fingerprint.Of over the mutated database.
func TestSessionFingerprintTracksWrites(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	db, err := core.ParseDatabaseString("dom ?1 a b\ndom ?2 a b\nR(?1, ?2)\nS(?2)\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	pdb := srv.Live()
	queries := []string{"R(x, y) ∧ S(y)", "R(x, x)"}
	check := func(step string) {
		t.Helper()
		for _, qs := range queries {
			q, err := cq.Parse(qs)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []fingerprint.Kind{fingerprint.KindVal, fingerprint.KindComp, fingerprint.KindCertain, fingerprint.KindPossible} {
				if got, want := pdb.Fingerprint(q, k), fingerprint.Of(db, q, k); got != want {
					t.Fatalf("%s: %s %q: session fingerprint %s, fingerprint.Of %s", step, k, qs, got, want)
				}
			}
			code, out := serveJSON(t, srv.Handler(), http.MethodPost, "/v1/count", Request{Query: qs})
			if code != http.StatusOK || out["fingerprint"] != fingerprint.Of(db, q, fingerprint.KindVal) {
				t.Fatalf("%s: count %q: HTTP %d %v, want fingerprint %s", step, qs, code, out, fingerprint.Of(db, q, fingerprint.KindVal))
			}
		}
	}
	check("load")
	writes := []struct {
		method, path string
		body         MutationRequest
	}{
		{http.MethodPost, "/v1/facts", MutationRequest{Facts: []string{"R(?2, ?1)"}}},
		{http.MethodPost, "/v1/domain", MutationRequest{Null: "?1", Values: []string{"c"}}},
		{http.MethodPost, "/v1/facts", MutationRequest{Facts: []string{"S(a)", "R(?1, ?1)"}}},
		{http.MethodDelete, "/v1/facts", MutationRequest{Facts: []string{"R(?1, ?2)"}}},
		{http.MethodDelete, "/v1/facts", MutationRequest{Facts: []string{"S(?2)", "S(a)"}}},
	}
	for i, w := range writes {
		if code, out := serveJSON(t, srv.Handler(), w.method, w.path, w.body); code != http.StatusOK {
			t.Fatalf("write %d: HTTP %d %v", i, code, out)
		}
		check(w.method + " " + w.path)
	}
}

// TestTextMemoConcurrentUse posts the same bodies from several
// goroutines at once, cold and warm, so memo reads and fills race each
// other (run under -race); every answer is the same count. The texts are
// renamings of memoDB, which has 6 distinct completions; all but the
// proper colourings' {R(a, b), R(b, a)} hold R(a, a) or R(b, b).
func TestTextMemoConcurrentUse(t *testing.T) {
	srv := New(Config{Workers: 1, CacheSize: 4})
	defer srv.Close()
	texts := []string{
		memoDB,
		"uniform a b\nR(?2, ?1)\nR(?1, ?3)\nR(?3, ?4)\nR(?4, ?2)\n",
		"uniform a b\nR(?4, ?1)\nR(?3, ?4)\nR(?2, ?3)\nR(?1, ?2)\n",
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := Request{Database: texts[(g+i)%len(texts)], Query: "R(x, x)", Kind: []string{KindVal, KindComp}[i%2]}
				rec := httptest.NewRecorder()
				body, _ := json.Marshal(req)
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/count", bytes.NewReader(body)))
				var resp Response
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("HTTP %d %s: %v", rec.Code, rec.Body.Bytes(), err)
					return
				}
				if want := map[string]string{KindVal: "14", KindComp: "5"}[req.Kind]; resp.Count != want {
					t.Errorf("%s count %s, want %s", req.Kind, resp.Count, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
