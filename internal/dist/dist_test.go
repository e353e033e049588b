package dist

import (
	"context"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
)

// Fast lease timing for tests: tiny leases and strides so even small
// spaces cross many publish boundaries, and a short TTL so loss recovery
// happens within test patience.
func testConfig() Config {
	return Config{
		LeaseTTL:        200 * time.Millisecond,
		LeaseValuations: 256,
		MinLeases:       4,
		MaxLeases:       64,
		Stride:          32,
	}
}

// testDB returns the textual database and query of one test topology.
// All three have a 2^12 = 4096-big raw null space over binary domains;
// "naive" also carries a T-only null that #Val prunes into a ×2
// multiplier, so the merge's multiplier handling is always exercised.
// Every S fact holds a null of ID 7 or more, so no #Val witness block
// spans a whole 256-valuation lease: a lease takes several leaves and
// publishes, and a worker killed mid-run dies holding a partial one.
func testDB(style string) (database, query string) {
	query = "R(x, y) ∧ S(y)"
	switch style {
	case "naive": // shared nulls, repeated relations, one prunable null
		var b strings.Builder
		for i := 1; i <= 12; i++ {
			b.WriteString("dom ?")
			b.WriteString(big.NewInt(int64(i)).String())
			b.WriteString(" a b\n")
		}
		b.WriteString("R(?1, ?2)\nR(?2, ?3)\nR(?4, ?5)\nR(?1, ?6)\nS(?7)\nS(?8)\nR(?9, ?10)\nS(?11)\nR(a, b)\nT(?12)\n")
		return b.String(), query
	case "codd": // every null occurs exactly once
		var b strings.Builder
		for i := 1; i <= 12; i++ {
			b.WriteString("dom ?")
			b.WriteString(big.NewInt(int64(i)).String())
			b.WriteString(" a b\n")
		}
		b.WriteString("R(?1, ?2)\nR(?3, ?4)\nR(?5, ?6)\nS(?7)\nS(?8)\nR(?9, ?10)\nS(?11)\nS(?12)\nR(b, a)\n")
		return b.String(), query
	case "uniform":
		return "uniform a b\n" +
			"R(?1, ?2)\nR(?2, ?3)\nR(?3, ?4)\nS(?5)\nS(?2)\nR(?6, ?7)\nS(?8)\nR(?9, ?10)\nS(?11)\nR(?12, ?1)\nR(a, a)\n", query
	}
	panic("unknown style " + style)
}

// reference computes the single-process answer.
func reference(t *testing.T, database, query, kind string) *big.Int {
	t.Helper()
	db, err := core.ParseDatabaseString(database)
	if err != nil {
		t.Fatal(err)
	}
	q, err := cq.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	var want *big.Int
	if kind == "comp" {
		want, err = count.BruteForceCompletions(db, q, &count.Options{Workers: 1})
	} else {
		want, err = count.BruteForceValuations(db, q, &count.Options{Workers: 1})
	}
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// cluster is one in-process coordinator behind a real HTTP listener.
type cluster struct {
	coord *Coordinator
	srv   *httptest.Server
}

func startCluster(t *testing.T, cfg Config) *cluster {
	t.Helper()
	coord := NewCoordinator(cfg)
	mux := http.NewServeMux()
	coord.RegisterHandlers(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
	})
	return &cluster{coord: coord, srv: srv}
}

// startWorker runs one worker against the cluster; the returned cancel
// kills it (the test's stand-in for kill -9: no goodbye, held leases
// just stop heartbeating).
func (c *cluster) startWorker(ctx context.Context, parallel int, client *http.Client) (context.CancelFunc, *sync.WaitGroup) {
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = RunWorker(wctx, WorkerConfig{
			Coordinator: c.srv.URL,
			Parallel:    parallel,
			Poll:        10 * time.Millisecond,
			Client:      client,
		})
	}()
	return cancel, &wg
}

// TestDistBasic: one worker, one job, exact count and clean metrics.
func TestDistBasic(t *testing.T) {
	database, query := testDB("uniform")
	want := reference(t, database, query, "val")
	cl := startCluster(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop, _ := cl.startWorker(ctx, 2, nil)
	defer stop()

	h, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "val"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Leases() < 4 {
		t.Fatalf("leases = %d, want ≥ 4", h.Leases())
	}
	var lastDone int
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	got, err := h.Wait(wctx, func(done, total int) {
		if done < lastDone {
			t.Errorf("progress went backwards: %d after %d", done, lastDone)
		}
		lastDone = done
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("distributed count %v, want %v", got, want)
	}
	if lastDone != h.Leases() {
		t.Fatalf("final progress %d, want %d", lastDone, h.Leases())
	}
	m := cl.coord.Metrics()
	if m.LeasesCompleted != int64(h.Leases()) || m.JobsCompleted != 1 || len(m.Workers) != 1 {
		t.Fatalf("metrics off: %+v", m)
	}
	if m.Workers[0].Visited == "0" {
		t.Fatal("worker credited no visited valuations")
	}
	st := h.Stats()
	if st.Workers != 1 || st.Done != st.Leases {
		t.Fatalf("job stats off: %+v", st)
	}
}

// TestDistNoWorkers: with nobody joined the job just waits; cancelling
// detaches it with a readable (and resumable) lease table.
func TestDistNoWorkers(t *testing.T) {
	database, query := testDB("codd")
	cl := startCluster(t, testConfig())
	h, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "val"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := h.Wait(ctx, nil); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	cp := h.Checkpoint()
	if len(cp.Shards) != h.Leases() || cp.Space == "" {
		t.Fatalf("cancelled checkpoint malformed: %+v", cp)
	}
	if cl.coord.Metrics().JobsActive != 0 {
		t.Fatal("cancelled job still active")
	}
}

// TestDistRepeatedFailureFailsJob: a range that keeps being refused by
// workers fails the whole job instead of spinning forever.
func TestDistRepeatedFailureFailsJob(t *testing.T) {
	database, query := testDB("codd")
	cfg := testConfig()
	cfg.MaxLeaseFails = 2
	cl := startCluster(t, cfg)
	h, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "val"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, aerr := cl.coord.Register(RegisterRequest{Name: "sick", ProtoVersion: ProtoVersion})
	if aerr != nil {
		t.Fatalf("register: %+v", aerr)
	}
	for i := 0; i < cfg.MaxLeaseFails; i++ {
		lease, aerr := cl.coord.Lease(LeaseRequest{WorkerID: reg.WorkerID})
		if aerr != nil || lease == nil {
			t.Fatalf("lease %d: %v %+v", i, lease, aerr)
		}
		if _, aerr := cl.coord.Fail(FailRequest{WorkerID: reg.WorkerID, LeaseID: lease.ID, Error: "synthetic compile failure"}); aerr != nil {
			t.Fatalf("fail %d: %+v", i, aerr)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := h.Wait(ctx, nil); err == nil || !strings.Contains(err.Error(), "synthetic compile failure") {
		t.Fatalf("err = %v, want job failure carrying the worker's report", err)
	}
}

// TestDistResumeAlreadyComplete: restoring a fully swept table merges
// immediately — the restart-after-last-partial window.
func TestDistResumeAlreadyComplete(t *testing.T) {
	database, query := testDB("uniform")
	want := reference(t, database, query, "val")
	cl := startCluster(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop, _ := cl.startWorker(ctx, 2, nil)
	defer stop()
	h, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "val"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithTimeout(ctx, 30*time.Second)
	defer wcancel()
	if _, err := h.Wait(wctx, nil); err != nil {
		t.Fatal(err)
	}
	cp := h.Checkpoint()
	h2, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "val"}, cp)
	if err != nil {
		t.Fatal(err)
	}
	ictx, icancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer icancel()
	got, err := h2.Wait(ictx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatalf("resumed-complete count %v, want %v", got, want)
	}
}
