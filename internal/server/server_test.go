package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// startServer runs a Server on a real TCP listener and returns its base
// URL. Everything is torn down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return srv, "http://" + ln.Addr().String()
}

func doJSON(t *testing.T, method, url string, body, out interface{}) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// chainDB builds the textual form of a non-uniform database whose facts
// chain the given null IDs: R(?ids[0], ?ids[1]), R(?ids[1], ?ids[2]), …
// (insertion order = the order of ids), every null over domain {a, b}.
func chainDB(ids []core.NullID, reverse bool) string {
	db := core.NewDatabase()
	for _, id := range ids {
		db.SetDomain(id, []string{"a", "b"})
	}
	order := make([]int, len(ids))
	for i := range order {
		if reverse {
			order[i] = len(ids) - 1 - i
		} else {
			order[i] = i
		}
	}
	for _, i := range order {
		db.MustAddFact("R", core.Null(ids[i]), core.Null(ids[(i+1)%len(ids)]))
	}
	return db.String()
}

// TestConcurrentIsomorphicRequestsShareOneComputation is the headline
// cache property: two concurrent count requests over isomorphic databases
// — different null IDs, facts inserted in opposite orders — produce one
// cache entry and one underlying computation, whichever of the
// single-flight group or the LRU ends up deduplicating them.
func TestConcurrentIsomorphicRequestsShareOneComputation(t *testing.T) {
	srv, base := startServer(t, Config{Workers: 8})

	idsA := make([]core.NullID, 14)
	idsB := make([]core.NullID, 14)
	for i := range idsA {
		idsA[i] = core.NullID(i + 1)
		idsB[i] = core.NullID(500 + 13*i) // disjoint, gappy IDs
	}
	dbA, dbB := chainDB(idsA, false), chainDB(idsB, true)
	if dbA == dbB {
		t.Fatal("test is vacuous: the two presentations are textually identical")
	}

	// #Comp over a non-uniform binary schema always brute-forces: a real
	// sweep of the 2^14 valuations, slow enough that deduplication matters.
	post := func(db string) *Response {
		var out Response
		if code := doJSON(t, http.MethodPost, base+"/v1/count", Request{Database: db, Query: "R(x, y)", Kind: KindComp}, &out); code != http.StatusOK {
			t.Errorf("count returned HTTP %d: %+v", code, out)
		}
		return &out
	}
	var wg sync.WaitGroup
	results := make([]*Response, 2)
	for i, db := range []string{dbA, dbB} {
		wg.Add(1)
		go func(i int, db string) {
			defer wg.Done()
			results[i] = post(db)
		}(i, db)
	}
	wg.Wait()

	if results[0].Count == "" || results[0].Count != results[1].Count {
		t.Fatalf("isomorphic databases counted differently: %q vs %q", results[0].Count, results[1].Count)
	}
	if results[0].Fingerprint != results[1].Fingerprint {
		t.Fatalf("isomorphic databases have different fingerprints:\n%s\n%s", results[0].Fingerprint, results[1].Fingerprint)
	}
	var stats Stats
	if code := doJSON(t, http.MethodGet, base+"/v1/stats", nil, &stats); code != http.StatusOK {
		t.Fatalf("stats returned HTTP %d", code)
	}
	if stats.Computations != 1 {
		t.Errorf("computations = %d, want 1 (stats: %+v)", stats.Computations, stats)
	}
	if stats.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1", stats.CacheEntries)
	}
	if stats.CacheHits+stats.FlightShared != 1 {
		t.Errorf("expected the second request to be deduplicated: %+v", stats)
	}

	// A third, sequential request over yet another presentation is a pure
	// cache hit.
	idsC := make([]core.NullID, 14)
	for i := range idsC {
		idsC[i] = core.NullID(9000 + i*3)
	}
	third := post(chainDB(idsC, false))
	if !third.Cached {
		t.Errorf("third isomorphic request was not served from cache: %+v", third)
	}
	if got := srv.Stats(); got.Computations != 1 {
		t.Errorf("computations after third request = %d, want 1", got.Computations)
	}
}

// jobTestDB returns a uniform database with 2^n valuations whose #Val
// brute-force sweep is heavy enough to observe progress on: a star
// R(?i, ?n), i < n, whose #Val of R(x, x) is 2^n − 2. Every witness of
// R(x, x) holds the centre ?n, the last digit of the sweep, so no
// witness block spans more than one valuation and the sweep visits all
// 2^n of them.
func jobTestDB(n int) string {
	db := core.NewUniformDatabase([]string{"a", "b"})
	for i := 1; i < n; i++ {
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(core.NullID(n)))
	}
	return db.String()
}

// TestJobLifecycle: an async brute-force job streams monotonically
// increasing progress and finishes with the exact count the library
// computes directly.
func TestJobLifecycle(t *testing.T) {
	_, base := startServer(t, Config{Workers: 8, MaxValuations: 1 << 25})
	dbText := jobTestDB(18) // 262144 valuations

	var created Job
	req := Request{Database: dbText, Query: "R(x, x)", Kind: KindVal, ForceBrute: true}
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &created); code != http.StatusAccepted {
		t.Fatalf("job create returned HTTP %d: %+v", code, created)
	}
	if created.ID == "" || created.Status != JobRunning {
		t.Fatalf("unexpected initial job state: %+v", created)
	}

	var observed []float64
	deadline := time.Now().Add(30 * time.Second)
	var final Job
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish; last state %+v", final)
		}
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+created.ID, nil, &final); code != http.StatusOK {
			t.Fatalf("job get returned HTTP %d", code)
		}
		observed = append(observed, final.Progress)
		if final.Status != JobRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.Status != JobDone {
		t.Fatalf("job ended as %s (error %q)", final.Status, final.Error)
	}
	for i := 1; i < len(observed); i++ {
		if observed[i] < observed[i-1] {
			t.Fatalf("progress went backwards: %v", observed)
		}
	}
	if last := observed[len(observed)-1]; last != 1 {
		t.Fatalf("final progress = %v, want 1", last)
	}
	if final.ShardsTotal == 0 || final.ShardsDone != final.ShardsTotal {
		t.Errorf("shards %d/%d, want all done", final.ShardsDone, final.ShardsTotal)
	}

	// The job's result matches a direct library computation.
	db, err := core.ParseDatabaseString(dbText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := count.BruteForceValuations(db, cq.MustParseBCQ("R(x, x)"), &count.Options{MaxValuations: 1 << 25})
	if err != nil {
		t.Fatal(err)
	}
	if final.Result == nil || final.Result.Count != want.String() {
		t.Fatalf("job result %+v, want count %v", final.Result, want)
	}

	// The finished job warmed the result cache: the same count as a sync
	// request is a cache hit even through the dispatcher.
	var sync Response
	if code := doJSON(t, http.MethodPost, base+"/v1/count", Request{Database: dbText, Query: "R(x, x)"}, &sync); code != http.StatusOK {
		t.Fatalf("sync count after job returned HTTP %d", code)
	}
	if !sync.Cached || sync.Count != want.String() {
		t.Errorf("sync count after job: cached=%v count=%s, want cached=true count=%v", sync.Cached, sync.Count, want)
	}
}

// TestJobCancellation: DELETE on a running job stops the worker pool —
// the job reaches the terminal "cancelled" status (which requires the
// underlying sweep to have returned) well before it could have finished.
func TestJobCancellation(t *testing.T) {
	_, base := startServer(t, Config{Workers: 4, MaxValuations: 1 << 27})
	dbText := jobTestDB(26) // 2^26 ≈ 67M valuations: seconds of sweep

	var created Job
	req := Request{Database: dbText, Query: "R(x, x)", Kind: KindVal, ForceBrute: true}
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &created); code != http.StatusAccepted {
		t.Fatalf("job create returned HTTP %d", code)
	}
	start := time.Now()

	// Let the sweep actually start, then cancel.
	time.Sleep(50 * time.Millisecond)
	var onDelete Job
	if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/"+created.ID, nil, &onDelete); code != http.StatusOK {
		t.Fatalf("job delete returned HTTP %d", code)
	}
	if !onDelete.CancelRequested {
		t.Errorf("DELETE did not flag cancellation: %+v", onDelete)
	}

	var final Job
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+created.ID, nil, &final); code != http.StatusOK {
			t.Fatalf("job get returned HTTP %d", code)
		}
		if final.Status != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not stop after DELETE: %+v", final)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Status != JobCancelled {
		t.Fatalf("job ended as %s, want %s (%+v)", final.Status, JobCancelled, final)
	}
	if final.Progress >= 1 {
		t.Errorf("cancelled job reports full progress: %+v", final)
	}
	if final.Result != nil {
		t.Errorf("cancelled job carries a result: %+v", final.Result)
	}
	// Loose sanity bound: cancellation must not have waited for the full
	// multi-second sweep.
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Errorf("cancellation took %v; the pool did not stop promptly", elapsed)
	}
}

// TestBatchEndpoint: a batch mixing count, classify, certain, possible,
// estimate and a broken request returns per-item results in order, with
// isomorphic items deduplicated to one computation.
func TestBatchEndpoint(t *testing.T) {
	srv, base := startServer(t, Config{Workers: 4})
	uniform := "uniform a b c\nS(a, b)\nS(?1, a)\nS(a, ?2)\n"
	ids1 := []core.NullID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ids2 := []core.NullID{77, 3, 41, 12, 90, 55, 8, 23, 61, 34}
	batch := BatchRequest{Requests: []Request{
		{Op: OpCount, Database: uniform, Query: "S(x, x)", Kind: KindVal},
		{Op: OpCount, Database: chainDB(ids1, false), Query: "R(x, y)", Kind: KindComp},
		{Op: OpCount, Database: chainDB(ids2, true), Query: "R(x, y)", Kind: KindComp},
		{Op: OpClassify, Query: "R(x, x)"},
		{Op: OpCertain, Database: uniform, Query: "S(x, x)"},
		{Op: OpPossible, Database: uniform, Query: "S(x, x)"},
		{Op: OpEstimate, Database: uniform, Query: "S(x, x)", Eps: 0.3, Delta: 0.3, Seed: 7},
		{Op: OpCount, Database: uniform, Query: "NOPE("},
	}}
	var out BatchResponse
	if code := doJSON(t, http.MethodPost, base+"/v1/batch", batch, &out); code != http.StatusOK {
		t.Fatalf("batch returned HTTP %d", code)
	}
	if len(out.Responses) != len(batch.Requests) {
		t.Fatalf("%d responses for %d requests", len(out.Responses), len(batch.Requests))
	}
	// The uniform S(x,x) count is the Figure 1 variant: 5 of 9 valuations.
	if out.Responses[0].Count != "5" {
		t.Errorf("count item: %+v", out.Responses[0])
	}
	if out.Responses[1].Count == "" || out.Responses[1].Count != out.Responses[2].Count {
		t.Errorf("isomorphic batch items disagree: %+v vs %+v", out.Responses[1], out.Responses[2])
	}
	if len(out.Responses[3].Classification) != 8 {
		t.Errorf("classify item returned %d variants, want 8", len(out.Responses[3].Classification))
	}
	if out.Responses[4].Holds == nil || *out.Responses[4].Holds {
		t.Errorf("certain item: %+v (S(x,x) is not certain)", out.Responses[4])
	}
	if out.Responses[5].Holds == nil || !*out.Responses[5].Holds {
		t.Errorf("possible item: %+v (S(x,x) is possible)", out.Responses[5])
	}
	if out.Responses[6].Count == "" || !strings.HasPrefix(out.Responses[6].Method, "approx/karp-luby") {
		t.Errorf("estimate item: %+v", out.Responses[6])
	}
	if out.Responses[7].Error == "" {
		t.Errorf("broken item did not error: %+v", out.Responses[7])
	}
	if got := srv.Stats(); got.Computations > 5 {
		// count + dedup'd isomorphic pair + certain + possible ≤ 5
		// computations (classify and estimate are uncached ops).
		t.Errorf("batch used %d computations, want ≤ 5 (%+v)", got.Computations, got)
	}
}

// TestBatchItemPanicIsContained: a batch item that panics answers with an
// error naming the panic, and the other items of the batch complete; the
// process, and with it the test binary, stays up.
func TestBatchItemPanicIsContained(t *testing.T) {
	execute := executeBatchItem
	t.Cleanup(func() { executeBatchItem = execute })
	executeBatchItem = func(s *Server, req Request) *Response {
		if req.Query == "R(x, x)" {
			panic("item exploded")
		}
		return execute(s, req)
	}
	_, base := startServer(t, Config{Workers: 2})
	uniform := "uniform a b c\nS(a, b)\nS(?1, a)\nS(a, ?2)\n"
	batch := BatchRequest{Requests: []Request{
		{Op: OpCount, Database: uniform, Query: "S(x, x)", Kind: KindVal},
		{Op: OpClassify, Query: "R(x, x)"},
		{Op: OpPossible, Database: uniform, Query: "S(x, x)"},
	}}
	var out BatchResponse
	if code := doJSON(t, http.MethodPost, base+"/v1/batch", batch, &out); code != http.StatusOK {
		t.Fatalf("batch returned HTTP %d", code)
	}
	if len(out.Responses) != 3 {
		t.Fatalf("%d responses for 3 requests", len(out.Responses))
	}
	if got := out.Responses[1].Error; !strings.Contains(got, "panicked") || !strings.Contains(got, "item exploded") {
		t.Errorf("panicking item answered %+v, want an error naming the panic", out.Responses[1])
	}
	if out.Responses[0].Count != "5" {
		t.Errorf("count item: %+v", out.Responses[0])
	}
	if out.Responses[2].Holds == nil || !*out.Responses[2].Holds {
		t.Errorf("possible item: %+v", out.Responses[2])
	}
}

// TestBatchBoundsItemGoroutines: a batch holds at most NumCPU item
// goroutines at once, however many items it carries: the most a batch
// may carry, maxBatchItems empty items, must not start a goroutine each
// before the semaphore admits it. The bound below is exceeded by one
// goroutine per item on any host with fewer than 479 CPUs.
func TestBatchBoundsItemGoroutines(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	const items = maxBatchItems
	body := emptyItems(items)
	before := runtime.NumGoroutine()
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, runtime.NumGoroutine())
			select {
			case <-stop:
				peak <- most
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	close(stop)
	most := <-peak
	if rec.Code != http.StatusOK {
		t.Fatalf("batch of %d items: HTTP %d", items, rec.Code)
	}
	// The sampler, NumCPU running items and as many finishing ones, plus
	// slack: NumGoroutine reads the runtime's free lists without a lock,
	// so it can overcount by a batch of up to 32 exited goroutines the
	// runtime is moving between them. Without the bound a batch this
	// size peaks near its item count.
	if limit := before + 1 + 2*runtime.NumCPU() + 64; most > limit {
		t.Fatalf("a batch of %d items peaked at %d goroutines (%d before it), want at most %d", items, most, before, limit)
	}
}

// postBatch sends body to /v1/batch through the handler.
func postBatch(srv *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	return rec
}

// emptyItems renders a batch body of n empty items.
func emptyItems(n int) string {
	return `{"requests": [{}` + strings.Repeat(`,{}`, n-1) + `]}`
}

// TestBatchItemCap: a batch carries at most maxBatchItems items, and its
// decoding stays strict at both levels.
func TestBatchItemCap(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	rec := postBatch(srv, emptyItems(maxBatchItems))
	var out BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("%d items: HTTP %d (%v)", maxBatchItems, rec.Code, err)
	}
	if len(out.Responses) != maxBatchItems {
		t.Fatalf("%d items answered with %d responses", maxBatchItems, len(out.Responses))
	}
	for _, body := range []string{
		emptyItems(maxBatchItems + 1),
		`{"requests": [{}], "extra": 1}`,
		`{"requests": [{"bogus": 1}]}`,
		`{"requests": {}}`,
		`{"requests": [{}]`,
		`{"requests": []}`,
		`{}`,
	} {
		if rec := postBatch(srv, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%.60s: HTTP %d, want 400: %.200s", body, rec.Code, rec.Body.Bytes())
		}
	}
	if got := srv.Stats(); got.Computations != 0 {
		t.Errorf("refused batches ran %d computations", got.Computations)
	}
}

// TestBatchOversizedIsCheap: a body just under the body cap packed with
// empty items, millions of them, is refused before it costs more than
// reading its first items.
func TestBatchOversizedIsCheap(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	body := emptyItems((maxRequestBody - 64) / 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := postBatch(srv, body)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "more than") {
		t.Fatalf("a %d-byte batch: HTTP %d: %.200s", len(body), rec.Code, rec.Body.Bytes())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("refusing a %d-byte batch allocated %d bytes, want under 64 MiB", len(body), alloc)
	}
}

// TestSyncEndpointsAndErrors drives the remaining endpoints and the error
// paths over the real listener.
func TestSyncEndpointsAndErrors(t *testing.T) {
	_, base := startServer(t, Config{Workers: 2, MaxValuations: 64})

	var health map[string]string
	if code := doJSON(t, http.MethodGet, base+"/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, health)
	}

	// classify endpoint.
	var cls Response
	if code := doJSON(t, http.MethodPost, base+"/v1/classify", Request{Query: "R(x, y) ∧ S(y)"}, &cls); code != http.StatusOK {
		t.Fatalf("classify returned HTTP %d", code)
	}
	if len(cls.Classification) != 8 {
		t.Fatalf("classification has %d rows, want 8: %+v", len(cls.Classification), cls)
	}

	// Parse errors are 400s.
	var eb errorBody
	if code := doJSON(t, http.MethodPost, base+"/v1/count", Request{Database: "R(?1)\n", Query: "("}, &eb); code != http.StatusBadRequest {
		t.Errorf("bad query: HTTP %d (%+v)", code, eb)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/count", Request{Query: "R(x)"}, &eb); code != http.StatusBadRequest {
		t.Errorf("missing database: HTTP %d", code)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/count", Request{Database: "uniform a\nR(?1)\n", Query: "R(x)", Kind: "bogus"}, &eb); code != http.StatusBadRequest {
		t.Errorf("bogus kind: HTTP %d", code)
	}

	// The per-server budget caps brute force: 2^10 valuations over a
	// 64-valuation budget must 422, and the error names the guard.
	big10 := jobTestDB(10)
	if code := doJSON(t, http.MethodPost, base+"/v1/count", Request{Database: big10, Query: "R(x, y) ∧ R(y, x)", Kind: KindComp}, &eb); code != http.StatusUnprocessableEntity {
		t.Errorf("guard exceed: HTTP %d (%+v)", code, eb)
	} else if !strings.Contains(eb.Error, "guard") {
		t.Errorf("guard error text: %q", eb.Error)
	}

	// Unknown job.
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs/nope", nil, &eb); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d", code)
	}
	if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/nope", nil, &eb); code != http.StatusNotFound {
		t.Errorf("unknown job delete: HTTP %d", code)
	}

	// Jobs reject non-count ops.
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", Request{Op: OpClassify, Query: "R(x)"}, &eb); code != http.StatusBadRequest {
		t.Errorf("classify job: HTTP %d", code)
	}

	// Malformed JSON body.
	resp, err := http.Post(base+"/v1/count", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d", resp.StatusCode)
	}
}

// TestJobListing: created jobs appear in GET /v1/jobs, and the stats
// endpoint tallies them by status.
func TestJobListing(t *testing.T) {
	_, base := startServer(t, Config{Workers: 2})
	small := "uniform a b\nR(?1, ?2)\n"
	var created Job
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", Request{Database: small, Query: "R(x, x)"}, &created); code != http.StatusAccepted {
		t.Fatalf("job create returned HTTP %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var j Job
		doJSON(t, http.MethodGet, base+"/v1/jobs/"+created.ID, nil, &j)
		if j.Status == JobDone {
			if j.Result == nil || j.Result.Count != "2" {
				t.Fatalf("tiny job result: %+v", j.Result)
			}
			break
		}
		if j.Status != JobRunning || time.Now().After(deadline) {
			t.Fatalf("tiny job state: %+v", j)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var list JobList
	if code := doJSON(t, http.MethodGet, base+"/v1/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("job list returned HTTP %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != created.ID {
		t.Fatalf("job list: %+v", list)
	}
	var stats Stats
	doJSON(t, http.MethodGet, base+"/v1/stats", nil, &stats)
	if stats.Jobs[JobDone] != 1 {
		t.Errorf("stats job tally: %+v", stats.Jobs)
	}

	// DELETE on a terminal job is a 409: nothing to cancel, and the
	// status will never change.
	var deleted Job
	if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/"+created.ID, nil, &deleted); code != http.StatusConflict {
		t.Errorf("delete of finished job: HTTP %d", code)
	}
	if deleted.CancelRequested || deleted.Status != JobDone {
		t.Errorf("finished job mutated by DELETE: %+v", deleted)
	}

	// A second non-forced job over the same input is answered from the
	// result cache: done immediately, no second sweep.
	var cachedJob Job
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", Request{Database: small, Query: "R(x, x)"}, &cachedJob); code != http.StatusAccepted {
		t.Fatalf("cached job create returned HTTP %d", code)
	}
	if cachedJob.Status != JobDone || cachedJob.Result == nil || !cachedJob.Result.Cached || cachedJob.Result.Count != "2" {
		t.Errorf("repeat job was not served from cache: %+v (result %+v)", cachedJob, cachedJob.Result)
	}

	// Job snapshots elide the submitted database but record its size.
	if cachedJob.Request.Database != "" || cachedJob.DatabaseBytes != len(small) {
		t.Errorf("job snapshot database elision: %q, %d bytes (want 0 chars, %d bytes)",
			cachedJob.Request.Database, cachedJob.DatabaseBytes, len(small))
	}
}

// The LRU-eviction and single-flight unit tests moved with their code
// into internal/solver; what remains here is the service-level behaviour
// exercised above (isomorphic sharing, cache hits across jobs and sync
// requests).

// BenchmarkServerCachedCount times a cache hit through Execute: the
// request as a value in, the response as a value out, so it leaves out
// the JSON decode and encode that BenchmarkServerCachedHandler includes.
func BenchmarkServerCachedCount(b *testing.B) {
	srv := New(Config{Workers: 4})
	defer srv.Close()
	req := Request{Op: OpCount, Database: "uniform a b c\nS(a, b)\nS(?1, a)\nS(a, ?2)\n", Query: "S(x, x)", Kind: KindVal}
	if resp := srv.Execute(req); resp.Error != "" {
		b.Fatal(resp.Error)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := srv.Execute(req); resp.Error != "" || !resp.Cached {
			b.Fatalf("%+v", resp)
		}
	}
}

// BenchmarkServerCachedHandler times a cache hit posted through the
// service's handler: the body decoded, the count answered from the
// cache, and the response encoded into a recorder.
func BenchmarkServerCachedHandler(b *testing.B) {
	srv := New(Config{Workers: 4})
	defer srv.Close()
	body, err := json.Marshal(Request{Database: "uniform a b c\nS(a, b)\nS(?1, a)\nS(a, ?2)\n", Query: "S(x, x)", Kind: KindVal})
	if err != nil {
		b.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/count", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

func ExampleServer_Execute() {
	srv := New(Config{})
	defer srv.Close()
	resp := srv.Execute(Request{
		Op:       OpCount,
		Database: "uniform a b c\nS(a, b)\nS(?1, a)\nS(a, ?2)\n",
		Query:    "S(x, x)",
	})
	fmt.Println("#Val =", resp.Count)
	// Output: #Val = 5
}

// TestCountResponseKernel: the count wire form reports "uint64", the
// shard tally width, when the plan sweeps; jobs inherit it through their
// embedded Response.
func TestCountResponseKernel(t *testing.T) {
	_, base := startServer(t, Config{Workers: 2, MaxValuations: 1 << 20})
	req := Request{Op: OpCount, Database: jobTestDB(6), Query: "R(x, y) ∧ x ≠ y", Kind: KindVal}
	var resp Response
	if code := doJSON(t, http.MethodPost, base+"/v1/count", req, &resp); code != http.StatusOK {
		t.Fatalf("count returned HTTP %d", code)
	}
	if resp.Kernel != "uint64" {
		t.Fatalf("count response kernel %q, want uint64 (%+v)", resp.Kernel, resp)
	}
}

// TestBudgetOverrideServedFromWarmEntry pins the service's warm-entry
// policy: a request whose max_valuations tightens the server's budget
// fails its guard on a cold fingerprint, but once a default request has
// warmed that fingerprint the same request — and a job carrying the same
// override — is answered from the warm entry: a budget bounds
// computation, not lookup.
func TestBudgetOverrideServedFromWarmEntry(t *testing.T) {
	_, base := startServer(t, Config{Workers: 2, MaxValuations: 1 << 20})
	db := "uniform a b\nR(?1, ?2)\nR(?3, ?4)\nR(?5, ?6)\n"
	// Inequality defeats every fast path: a 64-valuation sweep.
	plain := Request{Database: db, Query: "R(x, y) ∧ x ≠ y", Kind: KindVal}
	tight := plain
	tight.MaxValuations = 4

	var resp Response
	if code := doJSON(t, http.MethodPost, base+"/v1/count", tight, &resp); code != http.StatusUnprocessableEntity {
		t.Fatalf("tightened count on a cold fingerprint returned HTTP %d, want 422: %+v", code, resp)
	}
	var warm Response
	if code := doJSON(t, http.MethodPost, base+"/v1/count", plain, &warm); code != http.StatusOK || warm.Cached {
		t.Fatalf("default count returned HTTP %d cached=%v, want a fresh 200", code, warm.Cached)
	}
	resp = Response{}
	if code := doJSON(t, http.MethodPost, base+"/v1/count", tight, &resp); code != http.StatusOK {
		t.Fatalf("tightened count on a warm fingerprint returned HTTP %d, want 200", code)
	}
	if !resp.Cached || resp.Count != warm.Count {
		t.Fatalf("tightened count: cached=%v count=%s, want the warm entry's %s", resp.Cached, resp.Count, warm.Count)
	}
	var job Job
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", tight, &job); code != http.StatusAccepted {
		t.Fatalf("tightened job create returned HTTP %d", code)
	}
	if job.Status != JobDone || job.Result == nil || !job.Result.Cached || job.Result.Count != warm.Count {
		t.Fatalf("tightened job: status %q result %+v, want done at once with the warm count %s", job.Status, job.Result, warm.Count)
	}
}

// TestRemovedHatchFieldsRejected: the engine escape hatches and the
// cylinder cap are not part of the wire API, and requests are decoded
// strictly, so a count request carrying disable_bitsets, syntactic_order
// or max_cylinders is a 400.
func TestRemovedHatchFieldsRejected(t *testing.T) {
	_, base := startServer(t, Config{Workers: 1})
	for _, field := range []string{`"disable_bitsets": true`, `"syntactic_order": true`, `"max_cylinders": -1`} {
		body := fmt.Sprintf(`{"database": "uniform a b\nR(?1, ?2)\n", "query": "R(x, x)", %s}`, field)
		resp, err := http.Post(base+"/v1/count", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("count with %s returned HTTP %d, want 400", field, resp.StatusCode)
		}
	}
}

// TestEstimateDeterministicForSeed: posting the same estimate twice gives
// the same count, as the seed field promises.
func TestEstimateDeterministicForSeed(t *testing.T) {
	_, base := startServer(t, Config{Workers: 2})
	var db strings.Builder
	db.WriteString("uniform a b\n")
	for i := 1; i <= 12; i++ {
		fmt.Fprintf(&db, "R(?%d, ?%d)\n", i, i%12+1)
	}
	req := Request{Database: db.String(), Query: "R(x, x)", Eps: 0.2, Delta: 0.2, Seed: 42}
	var first, second Response
	for _, out := range []*Response{&first, &second} {
		if code := doJSON(t, http.MethodPost, base+"/v1/estimate", req, out); code != http.StatusOK {
			t.Fatalf("estimate returned HTTP %d", code)
		}
	}
	if first.Count == "" || first.Count != second.Count {
		t.Fatalf("the same estimate request counted %q, then %q", first.Count, second.Count)
	}
}

// TestEstimateRejectsOverflowingEps: an ε whose Karp–Luby sample bound
// does not fit an int answers 422 instead of a one-sample estimate
// reported under that ε.
func TestEstimateRejectsOverflowingEps(t *testing.T) {
	_, base := startServer(t, Config{Workers: 2})
	var db strings.Builder
	db.WriteString("uniform a b c\n")
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&db, "R(?%d, ?%d)\n", i, i%10+1)
	}
	req := Request{Database: db.String(), Query: "R(x, x)", Eps: 1e-9, Delta: 0.05, Seed: 1}
	var resp Response
	if code := doJSON(t, http.MethodPost, base+"/v1/estimate", req, &resp); code != http.StatusUnprocessableEntity {
		t.Fatalf("estimate with ε = 1e-9 returned HTTP %d (%+v), want 422", code, resp)
	}
}

// TestServeSetsConnectionTimeouts: the http.Server that Serve runs bounds
// how long a client may take to send its request headers and how long an
// idle keep-alive connection stays open.
func TestServeSetsConnectionTimeouts(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	hs := srv.httpServer()
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the positive readHeaderTimeout %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want the positive idleTimeout %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.Handler == nil {
		t.Fatal("the server has no handler")
	}
}
