package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// blockingRun returns a RunFunc that blocks until released (or its
// context is cancelled), plus the release function.
func blockingRun(result string) (RunFunc, func()) {
	release := make(chan struct{})
	var once sync.Once
	run := func(ctx context.Context, j *Job) (json.RawMessage, error) {
		select {
		case <-release:
			return json.RawMessage(fmt.Sprintf("%q", result)), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return run, func() { once.Do(func() { close(release) }) }
}

func waitStatus(t *testing.T, m *Manager, id string, want Status) Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		rec := j.Snapshot()
		if rec.Status == want {
			return rec
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %q, want %q", id, rec.Status, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAdmissionControl: jobs beyond the concurrency cap queue FIFO, jobs
// beyond the queue cap are rejected with ErrQueueFull, and finishing a
// running job starts the next queued one.
func TestAdmissionControl(t *testing.T) {
	m := New(Config{MaxConcurrent: 1, MaxQueue: 2})
	defer m.Close()

	run1, release1 := blockingRun("a")
	j1, err := m.Submit(nil, run1)
	if err != nil {
		t.Fatal(err)
	}
	if st := j1.Snapshot().Status; st != StatusRunning {
		t.Fatalf("first job %q, want running", st)
	}

	run2, release2 := blockingRun("b")
	j2, err := m.Submit(nil, run2)
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if st := j2.Snapshot().Status; st != StatusQueued {
		t.Fatalf("second job %q, want queued", st)
	}
	run3, release3 := blockingRun("c")
	if _, err := m.Submit(nil, run3); err != nil {
		t.Fatal(err)
	}
	defer release3()

	if _, err := m.Submit(nil, run3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	mt := m.Metrics()
	if mt.Running != 1 || mt.Queued != 2 || mt.Rejected != 1 {
		t.Fatalf("metrics %+v, want running=1 queued=2 rejected=1", mt)
	}

	release1()
	waitStatus(t, m, j1.ID(), StatusDone)
	waitStatus(t, m, j2.ID(), StatusRunning)
	release2()
	waitStatus(t, m, j2.ID(), StatusDone)
}

// TestCancelQueued: cancelling a queued job settles it immediately and
// never runs it.
func TestCancelQueued(t *testing.T) {
	m := New(Config{MaxConcurrent: 1, MaxQueue: 4})
	defer m.Close()
	run1, release1 := blockingRun("a")
	defer release1()
	if _, err := m.Submit(nil, run1); err != nil {
		t.Fatal(err)
	}
	ran := false
	j2, err := m.Submit(nil, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		ran = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Cancel(j2.ID()); !ok {
		t.Fatal("cancel of queued job reported not-live")
	}
	rec := waitStatus(t, m, j2.ID(), StatusCancelled)
	if !rec.CancelRequested {
		t.Fatal("cancelled queued job not flagged")
	}
	if _, ok := m.Cancel(j2.ID()); ok {
		t.Fatal("second cancel of terminal job reported live")
	}
	release1()
	time.Sleep(20 * time.Millisecond)
	if ran {
		t.Fatal("cancelled queued job ran anyway")
	}
}

// TestTTLGC: finished jobs are evicted (from the registry and the store)
// once their TTL expires; unexpired and non-terminal jobs stay.
func TestTTLGC(t *testing.T) {
	now := time.Unix(1000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	store := NewMemStore()
	m := New(Config{MaxConcurrent: 2, TTL: time.Hour, Store: store, Clock: clock})
	defer m.Close()

	j1, err := m.Submit(nil, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		return json.RawMessage(`"x"`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, j1.ID(), StatusDone)
	runLong, release := blockingRun("y")
	defer release()
	j2, err := m.Submit(nil, runLong)
	if err != nil {
		t.Fatal(err)
	}

	m.GC()
	if _, ok := m.Get(j1.ID()); !ok {
		t.Fatal("unexpired finished job evicted")
	}

	clockMu.Lock()
	now = now.Add(2 * time.Hour)
	clockMu.Unlock()
	m.GC()
	if _, ok := m.Get(j1.ID()); ok {
		t.Fatal("expired finished job survived GC")
	}
	if _, ok := m.Get(j2.ID()); !ok {
		t.Fatal("running job evicted by TTL GC")
	}
	recs, _ := store.List()
	for _, r := range recs {
		if r.ID == j1.ID() {
			t.Fatal("expired job still in store")
		}
	}
	if mt := m.Metrics(); mt.Evicted == 0 {
		t.Fatal("eviction not counted")
	}
}

// TestFileStoreRoundTrip: records survive Put/List through the JSON files
// and Delete removes them; corrupt files are skipped.
func TestFileStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{
		ID:         "job-1-abcd",
		Status:     StatusRunning,
		Request:    json.RawMessage(`{"op":"count"}`),
		Checkpoint: json.RawMessage(`{"space":"64"}`),
		Progress:   0.5,
		CreatedAt:  time.Unix(500, 0).UTC(),
	}
	if err := fs.Put(rec); err != nil {
		t.Fatal(err)
	}
	if err := fs.Put(&Record{ID: "job-2-ef01", Status: StatusDone, CreatedAt: time.Unix(501, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	// A torn/corrupt file must not break List.
	if err := os.WriteFile(filepath.Join(dir, "garbage.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("listed %d records, want 2", len(recs))
	}
	var got *Record
	for _, r := range recs {
		if r.ID == rec.ID {
			got = r
		}
	}
	if got == nil {
		t.Fatal("record job-1-abcd not listed")
	}
	if got.Status != StatusRunning || string(got.Checkpoint) != `{"space":"64"}` || got.Progress != 0.5 {
		t.Fatalf("round-tripped record differs: %+v", got)
	}
	if err := fs.Delete(rec.ID); err != nil {
		t.Fatal(err)
	}
	recs, _ = fs.List()
	if len(recs) != 1 {
		t.Fatalf("after delete: %d records, want 1", len(recs))
	}
	if err := fs.Put(&Record{ID: "../escape"}); err == nil {
		t.Fatal("path-escaping ID accepted")
	}
}

// TestDrainKeepsRunningResumable: Drain cancels running jobs but persists
// them as running records with their final checkpoint, while a
// user-cancelled job settles as cancelled; after drain, submits are
// rejected with ErrDraining.
func TestDrainKeepsRunningResumable(t *testing.T) {
	store := NewMemStore()
	m := New(Config{MaxConcurrent: 2, Store: store})
	defer m.Close()

	started := make(chan struct{})
	j1, err := m.Submit(json.RawMessage(`{"q":1}`), func(ctx context.Context, j *Job) (json.RawMessage, error) {
		j.SetCheckpointSource(func() json.RawMessage {
			return json.RawMessage(`{"pos":"42"}`)
		})
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m.Drain(ctx)

	<-j1.Done()
	rec := j1.Snapshot()
	if rec.Status != StatusRunning {
		t.Fatalf("drained job status %q, want running (resumable)", rec.Status)
	}
	if string(rec.Checkpoint) != `{"pos":"42"}` {
		t.Fatalf("drained job checkpoint %s, want final flush", rec.Checkpoint)
	}
	recs, _ := store.List()
	found := false
	for _, r := range recs {
		if r.ID == j1.ID() && r.Status == StatusRunning && string(r.Checkpoint) == `{"pos":"42"}` {
			found = true
		}
	}
	if !found {
		t.Fatal("store does not hold the resumable record")
	}
	if _, err := m.Submit(nil, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
}

// TestRecoverResumesLiveJobs: a fresh manager over the old manager's
// store resubmits running and queued records (marked Resumed) and adopts
// terminal ones for retention.
func TestRecoverResumesLiveJobs(t *testing.T) {
	store := NewMemStore()
	// Seed the store as a crashed process would have left it.
	for _, rec := range []*Record{
		{ID: "job-1-aa", Status: StatusRunning, Request: json.RawMessage(`{"n":1}`),
			Checkpoint: json.RawMessage(`{"pos":"7"}`), CreatedAt: time.Unix(100, 0)},
		{ID: "job-2-bb", Status: StatusQueued, Request: json.RawMessage(`{"n":2}`), CreatedAt: time.Unix(101, 0)},
		{ID: "job-3-cc", Status: StatusDone, Result: json.RawMessage(`"r"`), CreatedAt: time.Unix(102, 0),
			FinishedAt: time.Unix(103, 0)},
	} {
		if err := store.Put(rec); err != nil {
			t.Fatal(err)
		}
	}

	m := New(Config{MaxConcurrent: 1, Store: store})
	defer m.Close()
	var mu sync.Mutex
	gotCheckpoints := map[string]string{}
	resumed, err := m.Recover(func(rec *Record) (RunFunc, error) {
		mu.Lock()
		gotCheckpoints[rec.ID] = string(rec.Checkpoint)
		mu.Unlock()
		return func(ctx context.Context, j *Job) (json.RawMessage, error) {
			return json.RawMessage(`"ok"`), nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 2 {
		t.Fatalf("resumed %d jobs, want 2", resumed)
	}
	if gotCheckpoints["job-1-aa"] != `{"pos":"7"}` {
		t.Fatalf("rehydrate did not see the checkpoint: %q", gotCheckpoints["job-1-aa"])
	}
	// Creation order: the older running record runs first under the
	// 1-slot cap.
	r1 := waitStatus(t, m, "job-1-aa", StatusDone)
	if !r1.Resumed {
		t.Fatal("recovered job not marked resumed")
	}
	waitStatus(t, m, "job-2-bb", StatusDone)
	j3, ok := m.Get("job-3-cc")
	if !ok {
		t.Fatal("terminal record not adopted")
	}
	if rec := j3.Snapshot(); rec.Status != StatusDone || string(rec.Result) != `"r"` {
		t.Fatalf("adopted record differs: %+v", rec)
	}
	if mt := m.Metrics(); mt.Resumed != 2 {
		t.Fatalf("metrics.Resumed = %d, want 2", mt.Resumed)
	}
}

// TestRecoverRejectedRecordFails: a live record the rehydrator rejects is
// marked failed, not silently dropped.
func TestRecoverRejectedRecordFails(t *testing.T) {
	store := NewMemStore()
	if err := store.Put(&Record{ID: "job-1-zz", Status: StatusRunning, CreatedAt: time.Unix(100, 0)}); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Store: store})
	defer m.Close()
	resumed, err := m.Recover(func(rec *Record) (RunFunc, error) {
		return nil, errors.New("unparseable request")
	})
	if err != nil || resumed != 0 {
		t.Fatalf("resumed=%d err=%v, want 0, nil", resumed, err)
	}
	rec := waitStatus(t, m, "job-1-zz", StatusFailed)
	if rec.Error != "unparseable request" {
		t.Fatalf("failed record error %q", rec.Error)
	}
}

// TestCheckpointNowPersists: the periodic capture path writes fresh
// checkpoints for running jobs and Metrics reports their age.
func TestCheckpointNowPersists(t *testing.T) {
	store := NewMemStore()
	m := New(Config{MaxConcurrent: 1, Store: store, PersistInterval: time.Hour})
	defer m.Close()
	started := make(chan struct{})
	run := func(ctx context.Context, j *Job) (json.RawMessage, error) {
		j.SetCheckpointSource(func() json.RawMessage { return json.RawMessage(`{"pos":"9"}`) })
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	j, err := m.Submit(nil, run)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	m.CheckpointNow()
	recs, _ := store.List()
	found := false
	for _, r := range recs {
		if r.ID == j.ID() && string(r.Checkpoint) == `{"pos":"9"}` && !r.CheckpointAt.IsZero() {
			found = true
		}
	}
	if !found {
		t.Fatal("CheckpointNow did not persist the checkpoint")
	}
	mt := m.Metrics()
	if _, ok := mt.CheckpointAgeSeconds[j.ID()]; !ok {
		t.Fatal("checkpoint age missing from metrics")
	}
	if _, ok := m.Cancel(j.ID()); !ok {
		t.Fatal("cancel reported not-live")
	}
	waitStatus(t, m, j.ID(), StatusCancelled)
}

// TestSubmitDone: cache-served jobs register as instantly done without
// consuming a concurrency slot.
func TestSubmitDone(t *testing.T) {
	m := New(Config{MaxConcurrent: 1})
	defer m.Close()
	run, release := blockingRun("slow")
	defer release()
	if _, err := m.Submit(nil, run); err != nil {
		t.Fatal(err)
	}
	j, err := m.SubmitDone(json.RawMessage(`{"q":1}`), json.RawMessage(`"cached"`))
	if err != nil {
		t.Fatal(err)
	}
	rec := j.Snapshot()
	if rec.Status != StatusDone || string(rec.Result) != `"cached"` || rec.Progress != 1 {
		t.Fatalf("SubmitDone record %+v", rec)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("SubmitDone job not done")
	}
}

// TestPanickingJobFails: a RunFunc that panics fails its job with an
// error naming the panic value; the manager frees the slot and starts
// the next queued job.
func TestPanickingJobFails(t *testing.T) {
	m := New(Config{MaxConcurrent: 1, MaxQueue: 2})
	defer m.Close()
	start := make(chan struct{})
	j1, err := m.Submit(nil, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		<-start
		panic("boom in the sweep")
	})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(nil, func(ctx context.Context, j *Job) (json.RawMessage, error) {
		return json.RawMessage(`"next"`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Snapshot().Status; st != StatusQueued {
		t.Fatalf("second job %q, want queued behind the first", st)
	}
	close(start)
	rec := waitStatus(t, m, j1.ID(), StatusFailed)
	if rec.Error != "jobs: job panicked: boom in the sweep" {
		t.Fatalf("panicked job error %q", rec.Error)
	}
	if rec := waitStatus(t, m, j2.ID(), StatusDone); string(rec.Result) != `"next"` {
		t.Fatalf("queued job result %s", rec.Result)
	}
}
