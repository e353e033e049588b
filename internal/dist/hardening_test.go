package dist

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Regression tests for the review findings on the distributed subsystem:
// the worker engine cache must key on the lease spec (job IDs recycle
// across coordinator restarts), /cluster must honor a shared token, and
// a degenerate lease TTL must not panic the expiry loop. Resume's
// discarding of checkpoints whose completion records no longer decode is
// a row of the checkpoint validity table in internal/count.

// TestWorkerEngineCacheKeyedBySpec: two leases sharing a job ID but
// differing in spec (the coordinator-restart ID-recycling scenario) must
// not share a compiled engine, while the same spec under a fresh job ID
// must hit the cache.
func TestWorkerEngineCacheKeyedBySpec(t *testing.T) {
	database, query := testDB("uniform")
	db, err := core.ParseDatabaseString(database)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sweep.Compile(db, q, sweep.ModeValuations)
	if err != nil {
		t.Fatal(err)
	}
	space := ref.Size().String()

	w := &worker{engines: make(map[string]*sweep.Engine)}
	mk := func(jobID, query string) *Lease {
		return &Lease{JobID: jobID, Database: database, Query: query, Kind: "val", Space: space}
	}
	engA, err := w.engineFor(mk("dj-1", query))
	if err != nil {
		t.Fatal(err)
	}
	// Same job ID, different query over the same relations (so the same
	// space) — a recycled ID from a restarted coordinator. Must compile
	// its own engine.
	engB, err := w.engineFor(mk("dj-1", "R(x, x) ∧ S(x)"))
	if err != nil {
		t.Fatal(err)
	}
	if engA == engB {
		t.Fatal("engines for different specs shared via recycled job ID")
	}
	// Same spec, different job ID — must reuse the cached engine.
	engA2, err := w.engineFor(mk("dj-9", query))
	if err != nil {
		t.Fatal(err)
	}
	if engA2 != engA {
		t.Error("identical spec under a new job ID missed the cache")
	}
}

// TestClusterTokenAuth: with a token configured, untokened and
// wrong-token requests get a structured 401, a wrong-token worker exits
// instead of retrying forever, and a correctly tokened worker sweeps a
// job end to end.
func TestClusterTokenAuth(t *testing.T) {
	database, query := testDB("uniform")
	want := reference(t, database, query, "val")
	cfg := testConfig()
	cfg.Token = "s3cret"
	cl := startCluster(t, cfg)

	status, eb, _ := postJSON(t, cl.srv.URL, "/cluster/register", RegisterRequest{ProtoVersion: ProtoVersion})
	if status != 401 || eb.Code != CodeUnauthorized {
		t.Fatalf("untokened register: %d %+v, want 401 %s", status, eb, CodeUnauthorized)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := RunWorker(ctx, WorkerConfig{
		Coordinator: cl.srv.URL,
		Token:       "wrong",
		Poll:        10 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("wrong-token worker: err = %v, want fatal refusal", err)
	}

	h, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "val"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	go func() {
		_ = RunWorker(wctx, WorkerConfig{
			Coordinator: cl.srv.URL,
			Parallel:    2,
			Poll:        10 * time.Millisecond,
			Token:       "s3cret",
		})
	}()
	got, err := h.Wait(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("tokened distributed count %v, want %v", got, want)
	}
}

// TestTinyLeaseTTLDoesNotPanic: a degenerate LeaseTTL must not hand the
// expiry loop a non-positive ticker interval.
func TestTinyLeaseTTLDoesNotPanic(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Nanosecond})
	time.Sleep(5 * time.Millisecond)
	c.Close()
}
