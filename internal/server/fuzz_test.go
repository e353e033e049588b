package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// FuzzServerRequest sends arbitrary bodies through the service's
// handler, to /v1/count and to /v1/explain. No body may panic the
// handler or get a 5xx answer from either. A body /v1/count answers 200
// is sent again and must come back from the cache with the same count,
// method and fingerprint; when /v1/explain answers it 200 too, the plan
// must have the count's method and fingerprint; and the count of an
// inline database must equal that of a cacheless solver on the same
// text, under the server's limits.
func FuzzServerRequest(f *testing.F) {
	for _, body := range []string{
		`{"database": "uniform a b\nR(?1, ?2)\nR(?2, ?3)\nR(?3, ?4)\nR(?4, ?1)\n", "query": "R(x, x)"}`,
		`{"database": "uniform a b\nR(?1, ?2)\nR(?2, ?3)\nR(?3, ?1)\n", "query": "R(x, x)", "kind": "comp"}`,
		`{"database": "dom ?1 a b\ndom ?2 b c\nR(?1, a)\nR(b, ?2)\n", "query": "R(x, y)"}`,
		`{"database": "uniform a b\nR(?1, ?2)\nR(?3, ?4)\n", "query": "R(x, y) ∧ x ≠ y", "max_valuations": 4}`,
		`{"database": "uniform a b c\nS(a, b)\nS(?1, a)\nS(a, ?2)\n", "query": "S(x, x) | S(x, a)"}`,
		`{"database": "uniform a b\nR(?1)\nS(?1, ?2)\n", "query": "!(R(x) ∧ S(x, y))", "kind": "comp"}`,
		`{"database": "dom ?1 a\nR(?1, ?2)\n", "query": "R(x, y)"}`,
		`{"database": "uniform a\nR(?1,\n", "query": "R(x)"}`,
		`{"database": "uniform a\nR(?1)\n", "query": "R(x)", "kind": "all"}`,
		`{"query": "R(x)"}`,
		`{"database": "uniform a\nR(?1)\n", "query": "R(x)", "disable_bitsets": true}`,
		`{"database": 7}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	const budget = 1 << 12
	srv := New(Config{Workers: 1, MaxValuations: budget})
	defer srv.Close()
	ref := solver.NewSolver(solver.WithCacheSize(-1), solver.WithWorkers(1), solver.WithMaxValuations(budget))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 4096 {
			return
		}
		post := func(path string) (int, *Response) {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s: HTTP %d for %q: %s", path, rec.Code, body, rec.Body.Bytes())
			}
			if rec.Code != http.StatusOK {
				return rec.Code, nil
			}
			var resp Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: undecodable 200 for %q: %v: %s", path, body, err, rec.Body.Bytes())
			}
			return rec.Code, &resp
		}
		_, explained := post("/v1/explain")
		code, first := post("/v1/count")
		if code != http.StatusOK {
			return
		}
		if explained != nil && (explained.Method != first.Method || explained.Fingerprint != first.Fingerprint) {
			t.Fatalf("%q: explained %s (%s), counted %s (%s)", body, explained.Method, explained.Fingerprint, first.Method, first.Fingerprint)
		}
		code, second := post("/v1/count")
		if code != http.StatusOK || !second.Cached || second.Count != first.Count || second.Method != first.Method || second.Fingerprint != first.Fingerprint {
			t.Fatalf("resent %q: HTTP %d %+v, want a cached copy of %+v", body, code, second, first)
		}

		// The server decoded the body, so it decodes here the same way.
		var req Request
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("body answered 200 does not decode: %v", err)
		}
		if req.Database == "" {
			return
		}
		db, err := core.ParseDatabaseString(req.Database)
		if err != nil {
			t.Fatalf("database answered 200 does not parse: %v", err)
		}
		q, err := cq.Parse(req.Query)
		if err != nil {
			t.Fatalf("query answered 200 does not parse: %v", err)
		}
		pdb, err := ref.Prepare(db)
		if err != nil {
			t.Fatalf("database answered 200 does not prepare: %v", err)
		}
		res, err := pdb.Count(context.Background(), q, countingKind(req.Kind))
		if err != nil {
			t.Fatalf("reference count of %q: %v", body, err)
		}
		if res.Count.String() != first.Count {
			t.Fatalf("%q: served count %s, reference %s (%s)", body, first.Count, res.Count, res.Method)
		}
	})
}

// FuzzBatchRequest sends arbitrary /v1/batch bodies through the
// service's handler. No body may panic the handler or get a 5xx answer,
// and a 200 must carry one response per item of the body, as
// encoding/json decodes it, and at most maxBatchItems of them.
func FuzzBatchRequest(f *testing.F) {
	for _, body := range []string{
		`{"requests": [{"op": "count", "database": "uniform a b\nR(?1, ?2)\n", "query": "R(x, x)"}, {"op": "classify", "query": "R(x, y) ∧ S(x)"}]}`,
		`{"requests": [{"op": "certain", "database": "dom ?1 a b\nR(?1, a)\n", "query": "R(x, x)"}, {"op": "possible", "database": "dom ?1 a b\nR(?1, a)\n", "query": "R(x, x)"}]}`,
		`{"requests": [{"op": "estimate", "database": "uniform a b\nR(?1, ?2)\n", "query": "R(x, x)"}, {"op": "explain", "query": "R(x)", "database": "uniform a\nR(?1)\n"}]}`,
		`{"REQUESTS": [{}], "requests": [{}, {}]}`,
		`{"requests": [{}, {"bogus": 1}]}`,
		`{"requests": [{}], "extra": true}`,
		`{"requests": null}`,
		`{"requests": [1, {}]}`,
		`{"requests": [{}]} trailing`,
		`null`,
		`[]`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	srv := New(Config{Workers: 1, MaxValuations: 1 << 12})
	defer srv.Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 4096 {
			return
		}
		var batch BatchRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		stdErr := dec.Decode(&batch)
		for _, req := range batch.Requests {
			// An estimate's sample count grows as 1/ε²: only the default
			// guarantee keeps one item cheap.
			if req.Op == OpEstimate && (req.Eps != 0 || req.Delta != 0) {
				return
			}
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("HTTP %d for %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		if stdErr != nil {
			t.Fatalf("200 for %q, which encoding/json refuses: %v", body, stdErr)
		}
		var out BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("undecodable 200 for %q: %v: %s", body, err, rec.Body.Bytes())
		}
		if n := len(out.Responses); n != len(batch.Requests) || n > maxBatchItems {
			t.Fatalf("%q: %d responses for %d items (cap %d)", body, n, len(batch.Requests), maxBatchItems)
		}
	})
}
