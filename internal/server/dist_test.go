package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/dist"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/jobs"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// End-to-end tests of the distributed job path: serve -coordinator
// decomposes oversized brute-force jobs into range leases for joined
// incdb worker processes, falls back to the local pool when nobody has
// joined (or the sweep is too small), and resumes in-flight distributed
// work across a server restart through the same jobs.Store checkpoints
// the local path uses.

// startTestWorker joins one worker process (in-process goroutine, real
// HTTP) to the server at base.
func startTestWorker(t *testing.T, base string, parallel int) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = dist.RunWorker(ctx, dist.WorkerConfig{
			Coordinator: base,
			Parallel:    parallel,
			Poll:        10 * time.Millisecond,
		})
	}()
	t.Cleanup(func() { cancel(); wg.Wait() })
	return cancel
}

// waitWorkers blocks until n workers are registered with the server's
// coordinator.
func waitWorkers(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Coordinator().WorkerCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", srv.Coordinator().WorkerCount(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pollJobDone polls GET /v1/jobs/{id} until the job is terminal.
func pollJobDone(t *testing.T, base, id string, patience time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(patience)
	for {
		var j Job
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &j); code != http.StatusOK {
			t.Fatalf("job get returned HTTP %d", code)
		}
		if j.Status == JobDone || j.Status == JobFailed || j.Status == JobCancelled {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish; state %+v", j)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func valReference(t *testing.T, dbText, query string, budget int64) string {
	t.Helper()
	db, err := core.ParseDatabaseString(dbText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := count.BruteForceValuations(db, cq.MustParseBCQ(query), &count.Options{MaxValuations: budget})
	if err != nil {
		t.Fatal(err)
	}
	return want.String()
}

// TestLiveDistributedJobDuringWrites: serial live-session jobs above
// the distribution threshold render the live database for the cluster
// while a client adds and removes the ground fact R(a, a) through
// /v1/facts. Rendering must not race the writes, and each result's
// fingerprint must name the version its count was taken over: R(a, a)
// satisfies R(x, x) in every valuation, so the count tells the two
// versions apart. The space stays 2^7 × 3 valuations throughout.
func TestLiveDistributedJobDuringWrites(t *testing.T) {
	srv, base := startServer(t, Config{
		Workers:         1,
		MaxValuations:   1 << 20,
		Coordinator:     true,
		DistThreshold:   1 << 6,
		LeaseValuations: 1 << 6,
		LeaseTTL:        2 * time.Second,
	})
	// Runs once the worker has stopped and before the server shuts down:
	// a connection the shared transport dialed but never used would hold
	// the shutdown up for seconds.
	t.Cleanup(http.DefaultTransport.(*http.Transport).CloseIdleConnections)
	startTestWorker(t, base, 1)
	waitWorkers(t, srv, 1)

	db := core.NewDatabase()
	for i := 1; i < 8; i++ {
		db.SetDomain(core.NullID(i), []string{"a", "b"})
		db.MustAddFact("R", core.Null(core.NullID(i)), core.Null(8))
	}
	db.SetDomain(8, []string{"a", "b", "c"})
	q := cq.MustParseBCQ("R(x, x)")
	written := db.Clone()
	written.MustAddFact("R", core.Const("a"), core.Const("a"))
	counts := map[string]string{}
	for _, d := range []*core.Database{db, written} {
		pdb, err := solver.NewSolver().Prepare(d)
		if err != nil {
			t.Fatal(err)
		}
		n, err := count.BruteForceValuations(d, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[pdb.Fingerprint(q, fingerprint.KindVal)] = n.String()
	}
	if err := srv.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			for _, method := range []string{http.MethodPost, http.MethodDelete} {
				select {
				case <-stop:
					return
				default:
				}
				req, err := http.NewRequest(method, base+"/v1/facts", strings.NewReader(`{"facts": ["R(a, a)"]}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s /v1/facts: HTTP %d", method, resp.StatusCode)
					return
				}
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	for i := 0; i < 6; i++ {
		var created Job
		req := Request{Query: "R(x, x)", Kind: KindVal, ForceBrute: true}
		if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &created); code != http.StatusAccepted {
			t.Fatalf("job create returned HTTP %d", code)
		}
		final := pollJobDone(t, base, created.ID, 30*time.Second)
		if final.Status != JobDone || final.Result == nil {
			t.Fatalf("job %d ended as %s (error %q)", i, final.Status, final.Error)
		}
		if !strings.HasPrefix(final.Result.Method, "distributed/brute-force(") {
			t.Fatalf("job %d: method %q, want a distributed sweep", i, final.Result.Method)
		}
		if want, ok := counts[final.Result.Fingerprint]; !ok || final.Result.Count != want {
			t.Fatalf("job %d: count %s under fingerprint %q, which names a version counting %q", i, final.Result.Count, final.Result.Fingerprint, want)
		}
	}
}

// TestDistributedJobEndToEnd: a forced brute-force job over the
// distribution threshold fans out to a joined worker, finishes with the
// count bit-identical to the local sweep, and both the job record and
// /v1/stats expose the cluster's state.
func TestDistributedJobEndToEnd(t *testing.T) {
	cfg := Config{
		Workers:         2,
		MaxValuations:   1 << 26,
		Coordinator:     true,
		DistThreshold:   1 << 10,
		LeaseValuations: 1 << 10,
		LeaseTTL:        2 * time.Second,
	}
	srv, base := startServer(t, cfg)
	startTestWorker(t, base, 2)
	waitWorkers(t, srv, 1)

	dbText := jobTestDB(16) // 2^16 valuations, 64 leases of 1024
	want := valReference(t, dbText, "R(x, x)", 1<<26)

	var created Job
	req := Request{Database: dbText, Query: "R(x, x)", Kind: KindVal, ForceBrute: true}
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &created); code != http.StatusAccepted {
		t.Fatalf("job create returned HTTP %d", code)
	}
	final := pollJobDone(t, base, created.ID, 60*time.Second)
	if final.Status != JobDone {
		t.Fatalf("job ended as %s (error %q)", final.Status, final.Error)
	}
	if final.Result == nil || final.Result.Count != want {
		t.Fatalf("distributed count %+v, want %s", final.Result, want)
	}
	if !strings.HasPrefix(final.Result.Method, "distributed/brute-force(") {
		t.Fatalf("method %q, want a distributed sweep", final.Result.Method)
	}
	if final.Result.Fingerprint == "" {
		t.Error("distributed result is missing the fingerprint")
	}
	if final.Cluster == nil {
		t.Fatal("job record is missing the cluster block")
	}
	if final.Cluster.Leases != 64 || final.Cluster.Done != final.Cluster.Leases || final.Cluster.Workers != 1 {
		t.Fatalf("cluster detail off: %+v", final.Cluster)
	}

	var st Stats
	if code := doJSON(t, http.MethodGet, base+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats returned HTTP %d", code)
	}
	if st.Cluster == nil {
		t.Fatal("stats is missing the cluster block")
	}
	if len(st.Cluster.Workers) != 1 || st.Cluster.LeasesCompleted != 64 || st.Cluster.JobsCompleted != 1 {
		t.Fatalf("cluster stats off: %+v", st.Cluster)
	}
}

// TestDistributedFallbacks: a coordinator-enabled server sweeps locally
// when no worker has joined, and when the sweep is under the
// distribution threshold even with a worker available.
func TestDistributedFallbacks(t *testing.T) {
	dbText := jobTestDB(14)
	want := valReference(t, dbText, "R(x, x)", 1<<26)
	req := Request{Database: dbText, Query: "R(x, x)", Kind: KindVal, ForceBrute: true}

	run := func(t *testing.T, cfg Config, joinWorker bool) Job {
		srv, base := startServer(t, cfg)
		if joinWorker {
			startTestWorker(t, base, 1)
			waitWorkers(t, srv, 1)
		}
		var created Job
		if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &created); code != http.StatusAccepted {
			t.Fatalf("job create returned HTTP %d", code)
		}
		return pollJobDone(t, base, created.ID, 60*time.Second)
	}

	t.Run("no workers", func(t *testing.T) {
		final := run(t, Config{
			Workers: 2, MaxValuations: 1 << 26,
			Coordinator: true, DistThreshold: 1 << 10,
		}, false)
		if final.Status != JobDone || final.Result == nil || final.Result.Count != want {
			t.Fatalf("local fallback result %+v, want count %s", final.Result, want)
		}
		if strings.HasPrefix(final.Result.Method, "distributed/") {
			t.Fatalf("method %q: job distributed with zero workers", final.Result.Method)
		}
		if final.Cluster != nil {
			t.Fatalf("locally swept job carries a cluster block: %+v", final.Cluster)
		}
	})
	t.Run("below threshold", func(t *testing.T) {
		final := run(t, Config{
			Workers: 2, MaxValuations: 1 << 26,
			Coordinator: true, DistThreshold: 1 << 20, // 2^14 sweep stays local
		}, true)
		if final.Status != JobDone || final.Result == nil || final.Result.Count != want {
			t.Fatalf("local fallback result %+v, want count %s", final.Result, want)
		}
		if strings.HasPrefix(final.Result.Method, "distributed/") {
			t.Fatalf("method %q: sub-threshold job was distributed", final.Result.Method)
		}
	})
}

// TestDistributedJobRestartRecovery: a distributed job's lease table
// persists through jobs.Store like any sweep checkpoint, so a server
// restart (drain, new process, RecoverJobs) resumes the fan-out from
// the per-range watermarks and still produces the exact count.
func TestDistributedJobRestartRecovery(t *testing.T) {
	store := jobs.NewMemStore()
	cfg := Config{
		Workers:            2,
		MaxValuations:      1 << 26,
		JobPersistInterval: 10 * time.Millisecond,
		JobStore:           store,
		Coordinator:        true,
		DistThreshold:      1 << 10,
		LeaseValuations:    1 << 15,
		LeaseTTL:           time.Second,
	}
	dbText := jobTestDB(22) // 2^22 valuations: enough leases to interrupt
	want := valReference(t, dbText, "R(x, x)", 1<<26)
	req := Request{Database: dbText, Query: "R(x, x)", Kind: KindVal, ForceBrute: true}

	srvA, baseA := startServer(t, cfg)
	stopWorkerA := startTestWorker(t, baseA, 2)
	waitWorkers(t, srvA, 1)
	var created Job
	if code := doJSON(t, http.MethodPost, baseA+"/v1/jobs", req, &created); code != http.StatusAccepted {
		t.Fatalf("job create returned HTTP %d", code)
	}

	// Wait until some leases completed AND their table is persisted, then
	// restart mid-job.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var j Job
		doJSON(t, http.MethodGet, baseA+"/v1/jobs/"+created.ID, nil, &j)
		if j.Status == JobDone {
			t.Fatal("job finished before the restart; grow the space")
		}
		recs, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		if j.ShardsDone >= 1 && len(recs) == 1 && len(recs[0].Checkpoint) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no persisted mid-job checkpoint; job %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srvA.Shutdown(shutdownCtx)
	stopWorkerA()

	recs, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != jobs.StatusRunning || len(recs[0].Checkpoint) == 0 {
		t.Fatalf("drained store does not describe a resumable job: %+v", recs)
	}

	// Fresh process over the same store; the worker joins before recovery
	// so the resumed job goes distributed again.
	srvB, baseB := startServer(t, cfg)
	startTestWorker(t, baseB, 2)
	waitWorkers(t, srvB, 1)
	resumed, err := srvB.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("recovered %d jobs, want 1", resumed)
	}
	final := pollJobDone(t, baseB, created.ID, 120*time.Second)
	if final.Status != JobDone {
		t.Fatalf("resumed job ended as %s (error %q)", final.Status, final.Error)
	}
	if !final.Resumed {
		t.Error("resumed job is not flagged as resumed")
	}
	if final.Result == nil || final.Result.Count != want {
		t.Fatalf("resumed distributed count %+v, want %s", final.Result, want)
	}
	if !strings.HasPrefix(final.Result.Method, "distributed/brute-force(") {
		t.Fatalf("method %q, want a distributed sweep after resume", final.Result.Method)
	}
	if final.Cluster == nil || final.Cluster.Done != final.Cluster.Leases {
		t.Fatalf("resumed cluster detail off: %+v", final.Cluster)
	}
}
