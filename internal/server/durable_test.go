package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/jobs"
)

// freezeStore wraps a Store with a power switch: once frozen, writes and
// deletes silently vanish, so the inner store holds exactly what a
// kill -9 at the freeze instant would have left on disk.
type freezeStore struct {
	inner  jobs.Store
	frozen atomic.Bool
}

func (s *freezeStore) Put(rec *jobs.Record) error {
	if s.frozen.Load() {
		return nil
	}
	return s.inner.Put(rec)
}

func (s *freezeStore) Delete(id string) error {
	if s.frozen.Load() {
		return nil
	}
	return s.inner.Delete(id)
}

func (s *freezeStore) List() ([]*jobs.Record, error) { return s.inner.List() }

func jsonBody(t *testing.T, v interface{}) io.Reader {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// TestJobAdmissionControl: with one concurrency slot and a queue of one,
// the second submission queues, the third bounces with 429 + Retry-After,
// and the stats endpoint reports the queue state and the rejection.
func TestJobAdmissionControl(t *testing.T) {
	_, base := startServer(t, Config{
		Workers:           2,
		MaxValuations:     1 << 25,
		MaxConcurrentJobs: 1,
		MaxQueuedJobs:     1,
	})
	req := Request{Database: jobTestDB(24), Query: "R(x, x)", Kind: KindVal, ForceBrute: true}

	var first, second Job
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &first); code != http.StatusAccepted {
		t.Fatalf("first job returned HTTP %d", code)
	}
	if first.Status != JobRunning {
		t.Fatalf("first job status %q, want %q", first.Status, JobRunning)
	}
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &second); code != http.StatusAccepted {
		t.Fatalf("second job returned HTTP %d", code)
	}
	if second.Status != JobQueued {
		t.Fatalf("second job status %q, want %q", second.Status, JobQueued)
	}

	// The third submission overflows the queue: 429, Retry-After, and no
	// job record. doJSON hides headers, so go through the client directly.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job returned HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing the Retry-After header")
	}

	var st Stats
	if code := doJSON(t, http.MethodGet, base+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats returned HTTP %d", code)
	}
	if st.JobQueue == nil {
		t.Fatal("stats is missing the job_queue block")
	}
	if st.JobQueue.Running != 1 || st.JobQueue.Queued != 1 {
		t.Errorf("job_queue gauges running=%d queued=%d, want 1/1", st.JobQueue.Running, st.JobQueue.Queued)
	}
	if st.JobQueue.Rejected != 1 || st.JobQueue.Submitted != 2 {
		t.Errorf("job_queue counters submitted=%d rejected=%d, want 2/1", st.JobQueue.Submitted, st.JobQueue.Rejected)
	}

	// Cancelling the running job promotes the queued one: FIFO dequeue is
	// observable through the API.
	if code := doJSON(t, http.MethodDelete, base+"/v1/jobs/"+first.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel returned HTTP %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var j Job
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+second.ID, nil, &j); code != http.StatusOK {
			t.Fatalf("job get returned HTTP %d", code)
		}
		if j.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued job was not promoted after cancel; state %+v", j)
		}
		time.Sleep(5 * time.Millisecond)
	}
	doJSON(t, http.MethodDelete, base+"/v1/jobs/"+second.ID, nil, nil)
}

// TestJobResumeAfterCrash is the durability property end to end: a sweep
// job checkpoints to the store, the process dies abruptly (simulated by
// freezing the store at a random-ish mid-sweep instant, so no orderly
// shutdown write happens), and a fresh server over the same store resumes
// the job from the checkpoint and produces the exact count.
func TestJobResumeAfterCrash(t *testing.T) {
	store := &freezeStore{inner: jobs.NewMemStore()}
	cfg := Config{
		Workers:            4,
		MaxValuations:      1 << 27,
		CheckpointStride:   1 << 12,
		JobPersistInterval: 10 * time.Millisecond,
		JobStore:           store,
	}
	dbText := jobTestDB(23) // 2^23 ≈ 8.4M valuations of 22 patched slots each: seconds of sweep
	req := Request{Database: dbText, Query: "R(x, x)", Kind: KindVal, ForceBrute: true}

	srvA := New(cfg)
	created, err := srvA.StartJob(req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for a persisted mid-sweep checkpoint, then pull the plug.
	deadline := time.Now().Add(20 * time.Second)
	for {
		recs, err := store.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 1 && len(recs[0].Checkpoint) > 0 && recs[0].Status == jobs.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint was persisted while the job ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	store.frozen.Store(true)
	srvA.Close()

	// The "disk" must still describe a running job (the abrupt death wrote
	// nothing after the freeze).
	recs, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Status != jobs.StatusRunning {
		t.Fatalf("store after crash: %+v, want one running record", recs)
	}

	// The dead server's job goroutine may still be unwinding (Close
	// cancels without waiting), so its handle stays frozen: the restarted
	// server opens the "disk" directly, as a new process would.
	cfgB := cfg
	cfgB.JobStore = store.inner
	srvB := New(cfgB)
	defer srvB.Close()
	resumed, err := srvB.RecoverJobs()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("recovered %d jobs, want 1", resumed)
	}
	j, ok := srvB.jobs.Get(created.ID)
	if !ok {
		t.Fatalf("recovered server does not know job %s", created.ID)
	}
	if !j.Resumed() {
		t.Error("recovered job is not flagged as resumed")
	}
	select {
	case <-j.Done():
	case <-time.After(180 * time.Second):
		t.Fatalf("resumed job did not finish; state %+v", j.Snapshot())
	}
	rec := j.Snapshot()
	if rec.Status != jobs.StatusDone {
		t.Fatalf("resumed job ended as %s (error %q)", rec.Status, rec.Error)
	}

	db, err := core.ParseDatabaseString(dbText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := count.BruteForceValuations(db, cq.MustParseBCQ("R(x, x)"), &count.Options{MaxValuations: 1 << 27})
	if err != nil {
		t.Fatal(err)
	}
	final := jobFromRecord(rec)
	if final.Result == nil || final.Result.Count != want.String() {
		t.Fatalf("resumed job result %+v, want count %v", final.Result, want)
	}
	if !final.Resumed {
		t.Error("wire snapshot does not carry resumed")
	}
}

// TestServeDrainLeavesJobsResumable is the SIGTERM path: cancelling
// Serve's context drains the server — the running job's record stays
// "running" in the store with a final checkpoint, and a fresh server over
// the same store finishes it with the exact count.
func TestServeDrainLeavesJobsResumable(t *testing.T) {
	store := jobs.NewMemStore()
	cfg := Config{
		Workers:            4,
		MaxValuations:      1 << 27,
		CheckpointStride:   1 << 12,
		JobPersistInterval: 10 * time.Millisecond,
		JobStore:           store,
	}
	dbText := jobTestDB(23) // 2^23 ≈ 8.4M valuations of 22 patched slots each: seconds of sweep
	req := Request{Database: dbText, Query: "R(x, x)", Kind: KindVal, ForceBrute: true}

	srvA, base := startServer(t, cfg)
	var created Job
	if code := doJSON(t, http.MethodPost, base+"/v1/jobs", req, &created); code != http.StatusAccepted {
		t.Fatalf("job create returned HTTP %d", code)
	}
	time.Sleep(100 * time.Millisecond) // let the sweep get somewhere

	// Drain exactly as Serve does on context cancellation.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srvA.Shutdown(shutdownCtx)

	recs, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("store holds %d records, want 1", len(recs))
	}
	if recs[0].Status != jobs.StatusRunning || len(recs[0].Checkpoint) == 0 {
		t.Fatalf("drained record status=%s checkpoint=%dB, want a running record with a checkpoint",
			recs[0].Status, len(recs[0].Checkpoint))
	}

	srvB := New(cfg)
	defer srvB.Close()
	if _, err := srvB.RecoverJobs(); err != nil {
		t.Fatal(err)
	}
	j, ok := srvB.jobs.Get(created.ID)
	if !ok {
		t.Fatalf("recovered server does not know job %s", created.ID)
	}
	select {
	case <-j.Done():
	case <-time.After(180 * time.Second):
		t.Fatalf("resumed job did not finish; state %+v", j.Snapshot())
	}
	rec := j.Snapshot()
	if rec.Status != jobs.StatusDone {
		t.Fatalf("resumed job ended as %s (error %q)", rec.Status, rec.Error)
	}
	db, err := core.ParseDatabaseString(dbText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := count.BruteForceValuations(db, cq.MustParseBCQ("R(x, x)"), &count.Options{MaxValuations: 1 << 27})
	if err != nil {
		t.Fatal(err)
	}
	if final := jobFromRecord(rec); final.Result == nil || final.Result.Count != want.String() {
		t.Fatalf("resumed job result %+v, want count %v", final, want)
	}
}

// TestLegacyHatchedJobRecordRecovers: jobs stored before the engine
// escape hatches and the cylinder cap left the wire still carry
// disable_bitsets, syntactic_order or max_cylinders in their requests;
// recovery decodes them leniently and each job finishes with the exact
// count.
func TestLegacyHatchedJobRecordRecovers(t *testing.T) {
	store := jobs.NewMemStore()
	dbText := jobTestDB(10)
	legacy := map[string]map[string]any{
		"legacy-1": {"force_brute": true, "disable_bitsets": true, "syntactic_order": true},
		"legacy-2": {"max_cylinders": -1},
	}
	for id, fields := range legacy {
		req := map[string]any{"op": OpCount, "database": dbText, "query": "R(x, x)", "kind": KindVal}
		for k, v := range fields {
			req[k] = v
		}
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(&jobs.Record{ID: id, Status: jobs.StatusRunning, Request: raw, CreatedAt: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Config{Workers: 2, JobStore: store})
	defer srv.Close()
	if resumed, err := srv.RecoverJobs(); err != nil || resumed != len(legacy) {
		t.Fatalf("RecoverJobs resumed %d (err %v), want %d", resumed, err, len(legacy))
	}
	db, err := core.ParseDatabaseString(dbText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := count.BruteForceValuations(db, cq.MustParseBCQ("R(x, x)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := range legacy {
		j, ok := srv.jobs.Get(id)
		if !ok {
			t.Fatalf("recovered server does not know the legacy job %s", id)
		}
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("legacy job %s did not finish; state %+v", id, j.Snapshot())
		}
		rec := j.Snapshot()
		if rec.Status != jobs.StatusDone {
			t.Fatalf("legacy job %s ended as %s (error %q)", id, rec.Status, rec.Error)
		}
		if final := jobFromRecord(rec); final.Result == nil || final.Result.Count != want.String() {
			t.Fatalf("legacy job %s result %+v, want count %v", id, final.Result, want)
		}
	}
}
