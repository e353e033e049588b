package loadgen

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/jobs"
	"github.com/incompletedb/incompletedb/internal/server"
)

func TestHistogramBuckets(t *testing.T) {
	// Every value maps into range, and bucketUpper bounds its bucket's
	// values from above with relative error < 2^-subBits.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := rng.Int63n(int64(10 * time.Minute))
		b := bucketOf(v)
		if b < 0 || b >= bucketCount {
			t.Fatalf("value %d maps to bucket %d outside [0, %d)", v, b, bucketCount)
		}
		u := bucketUpper(b)
		if u < v {
			t.Fatalf("bucketUpper(%d) = %d < value %d", b, u, v)
		}
		if v >= subSize && float64(u-v) > float64(v)/float64(subSize)+1 {
			t.Fatalf("bucket error too large: value %d, upper %d", v, u)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 0..9999 µs uniformly: p50 ≈ 5ms, p99 ≈ 9.9ms, max exact.
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 10000 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Max(); got != 9999*time.Microsecond {
		t.Errorf("max %v, want 9.999ms", got)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 5 * time.Millisecond}, {0.9, 9 * time.Millisecond}, {0.99, 9900 * time.Microsecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		// The bucket upper bound over-reports by at most ~1/subSize.
		if got < c.want || float64(got) > float64(c.want)*(1+2.0/subSize) {
			t.Errorf("q%.2f = %v, want within [%v, +%.1f%%]", c.q, got, c.want, 200.0/subSize)
		}
	}

	var m Histogram
	m.Record(time.Second)
	m.Merge(&h)
	if m.Count() != 10001 || m.Max() != time.Second {
		t.Errorf("merge: count %d max %v", m.Count(), m.Max())
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("q1 %v != max %v", h.Quantile(1), h.Max())
	}
}

// TestRunAgainstLiveServer drives the full mixed profile against an
// in-process server for a short burst and checks the report: operations
// of every kind, zero errors, sane quantiles, and the mirrored server
// stats including the anchor job's persisted checkpoint.
func TestRunAgainstLiveServer(t *testing.T) {
	srv := server.New(server.Config{
		Workers:            2,
		MaxValuations:      1 << 30,
		JobStore:           jobs.NewMemStore(),
		JobPersistInterval: 20 * time.Millisecond,
		CheckpointStride:   1 << 12,
		// The anchor sweep holds one slot for the whole run; keep enough
		// slots that the job ops still flow.
		MaxConcurrentJobs: 4,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()
	base := "http://" + ln.Addr().String()

	rep, err := Run(context.Background(), Config{
		BaseURL:  base,
		Workers:  4,
		Duration: 2 * time.Second,
		Warmup:   200 * time.Millisecond,
		Seed:     42,
		// A production-sized distjob (2^22) would monopolize this 1-CPU
		// box under the race detector; a 2^14 space exercises the same
		// submit-and-poll path in milliseconds. CI's load smoke runs the
		// real size against a live cluster.
		DistJobNulls: 14,
		// Big enough that the sweep (tens of millions of valuations per
		// second) is still running when the run ends and its checkpoint
		// age is visible in the final stats.
		AnchorValuations: 1 << 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Throughput <= 0 {
		t.Fatalf("no throughput: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("run had %d errors: %v", rep.Errors, rep.ErrorSamples)
	}
	for _, op := range []string{OpClassify, OpCount, OpComp, OpEstimate, OpMutate, OpJobs, OpDistJob} {
		o := rep.PerOp[op]
		if o == nil || o.Count == 0 {
			t.Errorf("operation %q was never recorded", op)
			continue
		}
		if o.Count > o.Rejected && (o.P50MS <= 0 || o.MaxMS < o.P99MS || o.P99MS < o.P50MS) {
			t.Errorf("%s quantiles implausible: %+v", op, o)
		}
	}
	if rep.Stats == nil || rep.Stats.JobQueue == nil {
		t.Fatal("report is missing the mirrored server stats")
	}
	if rep.Stats.JobQueue.Submitted == 0 {
		t.Error("server stats saw no job submissions")
	}
	if rep.AnchorJobID == "" {
		t.Error("anchor job was not submitted")
	}
	if len(rep.Stats.JobQueue.CheckpointAgeSeconds) == 0 {
		t.Error("anchor job produced no persisted checkpoint in stats")
	}

	// The report survives a JSON round trip (the CI artifact) and renders.
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Ops != rep.Ops || back.PerOp[OpCount].Count != rep.PerOp[OpCount].Count {
		t.Errorf("JSON round trip changed the report")
	}
	if txt := rep.Text(); len(txt) == 0 {
		t.Error("empty text report")
	}
}

// TestRunRejectionsAreNotErrors saturates a tiny job queue: 429s must be
// counted as rejections, not errors.
func TestRunRejectionsAreNotErrors(t *testing.T) {
	srv := server.New(server.Config{
		Workers:           2,
		MaxValuations:     1 << 26,
		MaxConcurrentJobs: 1,
		MaxQueuedJobs:     -1, // no queue: every concurrent submission bounces
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, ln) }()
	defer func() { cancel(); <-done }()

	rep, err := Run(context.Background(), Config{
		BaseURL:  "http://" + ln.Addr().String(),
		Workers:  8,
		Duration: 1500 * time.Millisecond,
		Warmup:   -1,
		Profile:  map[string]int{OpJobs: 1},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("429s were counted as errors: %v", rep.ErrorSamples)
	}
	if rep.Rejected == 0 {
		t.Fatal("saturating one job slot with 8 workers produced no 429s")
	}
	if rep.Stats == nil || rep.Stats.JobQueue == nil || rep.Stats.JobQueue.Rejected == 0 {
		t.Error("server stats do not show the rejections")
	}
}

// TestCompDatabasesMissTheCache: the comp op promises a fresh database
// per request. Fingerprints ignore null names, so the salted constants
// are what tell two requests apart: 1000 generated comp databases must
// have 1000 distinct fingerprints.
func TestCompDatabasesMissTheCache(t *testing.T) {
	w := &worker{rng: rand.New(rand.NewSource(1))}
	seen := make(map[string]int)
	for i := 0; i < 1000; i++ {
		db, err := core.ParseDatabaseString(w.compDatabase())
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint.Database(db)
		if j, dup := seen[fp]; dup {
			t.Fatalf("comp databases %d and %d share the fingerprint %s", j, i, fp)
		}
		seen[fp] = i
	}
}
