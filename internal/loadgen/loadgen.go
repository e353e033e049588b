// Package loadgen is the incdb load harness: a closed-loop traffic
// generator that drives a running incdb serve instance with a weighted
// mix of the service's operations — classification, cached counts,
// Karp–Luby estimates, live-session mutations and async brute-force jobs
// — from a pool of workers, and reports throughput plus per-operation
// latency quantiles from HDR-style log-linear histograms.
//
// The harness is deliberately closed-loop (each worker issues its next
// request when the previous one settles): against an admission-controlled
// job queue an open-loop generator would just measure its own backlog.
// Queue-full rejections (HTTP 429) are therefore a counted outcome, not
// an error — backpressure working as designed.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/incompletedb/incompletedb/internal/server"
)

// Operation names accepted in Config.Profile.
const (
	OpClassify = "classify"
	OpCount    = "count"
	OpComp     = "comp"
	OpEstimate = "estimate"
	OpMutate   = "mutate"
	OpJobs     = "jobs"
	OpDistJob  = "distjob"
)

// DefaultProfile is the mixed workload: mostly cheap cached reads, some
// forced completion sweeps, some sampling, some writes, some async jobs,
// and an occasional distribution-sized job (2^22 valuations — at the
// default budget's edge, over the coordinator's threshold, so it fans
// out to workers on a serve -coordinator cluster and sweeps locally
// everywhere else).
var DefaultProfile = map[string]int{
	OpCount:    4,
	OpComp:     2,
	OpClassify: 2,
	OpEstimate: 1,
	OpMutate:   1,
	OpJobs:     1,
	OpDistJob:  1,
}

// Config configures one load run.
type Config struct {
	// BaseURL is the target serve instance, e.g. "http://127.0.0.1:8333".
	BaseURL string
	// Workers is the number of concurrent closed-loop workers; 0 means 8.
	Workers int
	// Duration bounds the run in wall-clock time; 0 means 15s.
	Duration time.Duration
	// Warmup is the initial slice of Duration whose operations are
	// executed but not recorded (caches fill, connections open); 0 means
	// one second, negative disables.
	Warmup time.Duration
	// MaxOps, when positive, additionally caps the recorded operations.
	MaxOps int64
	// Profile weights the operation mix; nil means DefaultProfile.
	Profile map[string]int
	// Seed makes the generated workload deterministic; 0 means 1.
	Seed int64
	// AnchorValuations, when positive, submits one long-running
	// brute-force job of that sweep size before the run and cancels it
	// after the final stats snapshot: its periodically persisted
	// checkpoint makes the checkpoint machinery observable in the report
	// (stats.job_queue.checkpoint_age_seconds).
	AnchorValuations int64
	// DistJobNulls is the star size (= log2 of the valuation space) of
	// the databases distjob ops sweep; 0 means 22 — exactly the default
	// brute-force budget (2^22, the guard admits size ≤ max) and over the
	// coordinator's default distribution threshold (2^21), so the op fans
	// out on a serve -coordinator cluster and sweeps locally elsewhere.
	DistJobNulls int
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

func (c *Config) workers() int {
	if c.Workers <= 0 {
		return 8
	}
	return c.Workers
}

func (c *Config) duration() time.Duration {
	if c.Duration <= 0 {
		return 15 * time.Second
	}
	return c.Duration
}

func (c *Config) warmup() time.Duration {
	switch {
	case c.Warmup < 0:
		return 0
	case c.Warmup == 0:
		return time.Second
	default:
		return c.Warmup
	}
}

func (c *Config) distJobNulls() int {
	if c.DistJobNulls <= 0 {
		return 22
	}
	return c.DistJobNulls
}

func (c *Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c *Config) profile() map[string]int {
	if len(c.Profile) == 0 {
		return DefaultProfile
	}
	return c.Profile
}

func (c *Config) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// opAgg accumulates one worker's outcomes for one operation.
type opAgg struct {
	hist     Histogram
	count    int64
	errs     int64
	rejected int64
	samples  []string
}

func (a *opAgg) record(d time.Duration, err error, rejected bool) {
	a.count++
	switch {
	case rejected:
		a.rejected++
	case err != nil:
		a.errs++
		if len(a.samples) < 3 {
			a.samples = append(a.samples, err.Error())
		}
	default:
		// Only successful operations enter the latency histogram: a
		// near-instant 429 or error would skew the quantiles downward.
		a.hist.Record(d)
	}
}

// Run drives the configured load against the server and returns the
// report. It fails fast if the target is unreachable.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	base := strings.TrimRight(cfg.BaseURL, "/")
	if base == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	client := cfg.client()
	if err := ping(ctx, client, base); err != nil {
		return nil, err
	}
	profile := cfg.profile()
	var picks []string
	for _, op := range []string{OpClassify, OpCount, OpComp, OpEstimate, OpMutate, OpJobs, OpDistJob} {
		w := profile[op]
		if w < 0 {
			return nil, fmt.Errorf("loadgen: negative weight for %q", op)
		}
		for i := 0; i < w; i++ {
			picks = append(picks, op)
		}
	}
	if len(picks) == 0 {
		return nil, fmt.Errorf("loadgen: profile selects no operations")
	}
	for op := range profile {
		switch op {
		case OpClassify, OpCount, OpComp, OpEstimate, OpMutate, OpJobs, OpDistJob:
		default:
			return nil, fmt.Errorf("loadgen: unknown operation %q in profile", op)
		}
	}

	// The mutation workload needs a live session to write to.
	if profile[OpMutate] > 0 {
		if err := loadLive(ctx, client, base); err != nil {
			return nil, err
		}
	}

	var anchorID string
	if cfg.AnchorValuations > 0 {
		id, err := submitAnchor(ctx, client, base, cfg.AnchorValuations)
		if err != nil {
			return nil, fmt.Errorf("loadgen: anchor job: %w", err)
		}
		anchorID = id
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.duration())
	defer cancel()
	start := time.Now()
	recordFrom := start.Add(cfg.warmup())

	var budget *opBudget
	if cfg.MaxOps > 0 {
		budget = &opBudget{left: cfg.MaxOps}
	}

	n := cfg.workers()
	workers := make([]*worker, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &worker{
			client:     client,
			base:       base,
			rng:        rand.New(rand.NewSource(cfg.seed() + int64(i)*7919)),
			picks:      picks,
			agg:        make(map[string]*opAgg),
			recordFrom: recordFrom,
			budget:     budget,
		}
		w.buildPool(cfg.distJobNulls())
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop(runCtx)
		}()
	}
	wg.Wait()
	measured := time.Since(recordFrom)
	if measured <= 0 {
		measured = time.Since(start)
	}

	rep := buildReport(cfg, base, measured, workers)
	// Satellite observability: the final server-side stats snapshot rides
	// along, so the report shows the same queue/checkpoint counters
	// /v1/stats does.
	if st, err := fetchStats(ctx, client, base); err == nil {
		rep.Stats = st
	}
	if anchorID != "" {
		req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/jobs/"+anchorID, nil)
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rep.AnchorJobID = anchorID
	}
	return rep, nil
}

// opBudget caps the total recorded operations across workers.
type opBudget struct {
	mu   sync.Mutex
	left int64
}

// take reserves one operation; false once the budget is spent.
func (b *opBudget) take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left <= 0 {
		return false
	}
	b.left--
	return true
}

type worker struct {
	client     *http.Client
	base       string
	rng        *rand.Rand
	picks      []string
	agg        map[string]*opAgg
	recordFrom time.Time
	budget     *opBudget

	dbPool []string // small databases the read ops draw from
	jobDB  string   // the fast database jobs ops sweep
	distDB string   // the distribution-sized database distjob ops sweep
	seq    int      // per-worker mutation sequence
}

// buildPool pregenerates the worker's databases: a pool of small chain
// databases (8–12 nulls, 256–4096 valuations) whose reuse exercises the
// result cache, one 1024-valuation star for fast async jobs, and one
// 2^distNulls-valuation star for distjob (see Config.DistJobNulls).
func (w *worker) buildPool(distNulls int) {
	for i := 0; i < 8; i++ {
		n := 8 + w.rng.Intn(5)
		w.dbPool = append(w.dbPool, chainDatabase(w.rng.Intn(1<<20)+1, n))
	}
	w.jobDB = starDatabase(w.rng.Intn(1<<20)+1, 10)
	w.distDB = starDatabase(w.rng.Intn(1<<20)+1, distNulls)
}

// dedupDatabase renders a uniform database of 2n single-null unary
// facts R(?i), S(?j) plus one two-null binary fact T(?k, ?l) over
// {a, b}: 2^(2n+2) valuations collapse to at most 36 distinct
// completions, so a #Comp sweep over it is almost entirely dedup work.
// The binary fact keeps the schema non-unary, which blocks the
// Theorem 4.6 exact fast path and forces the brute sweep.
func dedupDatabase(base, n int) string {
	var b strings.Builder
	b.WriteString("uniform a b\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "R(?%d)\nS(?%d)\n", base+2*i, base+2*i+1)
	}
	fmt.Fprintf(&b, "T(?%d, ?%d)\n", base+2*n, base+2*n+1)
	return b.String()
}

// chainDatabase renders a uniform database of n nulls chained through a
// binary relation: R(?base, ?base+1), …, 2^n valuations over {a, b}.
func chainDatabase(base, n int) string {
	var b strings.Builder
	b.WriteString("uniform a b\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "R(?%d, ?%d)\n", base+i, base+(i+1)%n)
	}
	return b.String()
}

// starDatabase renders a uniform database of n nulls whose binary facts
// R(?base+i, ?base+n−1), i < n−1, all meet the largest null: 2^n
// valuations over {a, b}, #Val of R(x, x) = 2^n − 2. Every witness of
// R(x, x) holds the centre, the sweep's last digit, so the brute-force
// sweep visits every valuation — the shape for jobs that must run for a
// predictable while.
func starDatabase(base, n int) string {
	var b strings.Builder
	b.WriteString("uniform a b\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "R(?%d, ?%d)\n", base+i, base+n-1)
	}
	return b.String()
}

func (w *worker) loop(ctx context.Context) {
	for ctx.Err() == nil {
		op := w.picks[w.rng.Intn(len(w.picks))]
		start := time.Now()
		record := !start.Before(w.recordFrom)
		if record && !w.budget.take() {
			return
		}
		err, rejected := w.do(ctx, op)
		elapsed := time.Since(start)
		if ctx.Err() != nil && err != nil {
			// The run deadline tore the request down mid-flight; that is
			// the harness stopping, not a server failure.
			return
		}
		if !record {
			continue // warmup: executed, not recorded
		}
		a := w.agg[op]
		if a == nil {
			a = &opAgg{}
			w.agg[op] = a
		}
		a.record(elapsed, err, rejected)
	}
}

// do executes one operation; rejected reports a 429 (jobs admission).
func (w *worker) do(ctx context.Context, op string) (err error, rejected bool) {
	switch op {
	case OpClassify:
		queries := []string{"R(x, x)", "R(x, y)", "R(x, y) ∧ S(y)", "S(x) ∧ T(y)"}
		var resp server.Response
		return w.post(ctx, "/v1/classify", server.Request{Query: queries[w.rng.Intn(len(queries))]}, &resp), false
	case OpCount:
		kind := server.KindVal
		if w.rng.Intn(2) == 0 {
			kind = server.KindComp
		}
		var resp server.Response
		return w.post(ctx, "/v1/count", server.Request{
			Database: w.dbPool[w.rng.Intn(len(w.dbPool))],
			Query:    "R(x, x)",
			Kind:     kind,
		}, &resp), false
	case OpComp:
		// Completions-heavy: a fresh dedup-shaped database every request
		// (defeating the result cache), counted under #Comp so the sweep
		// spends its time deduplicating ~2^10 valuations into a handful
		// of completions — the dedup fast path under load.
		var resp server.Response
		return w.post(ctx, "/v1/count", server.Request{
			Database: dedupDatabase(w.rng.Intn(1<<20)+1, 4+w.rng.Intn(2)),
			Query:    "R(x) ∧ S(x)",
			Kind:     server.KindComp,
		}, &resp), false
	case OpEstimate:
		var resp server.Response
		return w.post(ctx, "/v1/estimate", server.Request{
			Database: w.dbPool[w.rng.Intn(len(w.dbPool))],
			Query:    "R(x, x)",
			Eps:      0.3,
			Delta:    0.3,
			Seed:     w.rng.Int63n(1 << 30),
		}, &resp), false
	case OpMutate:
		return w.mutate(ctx), false
	case OpJobs:
		return w.job(ctx, w.jobDB)
	case OpDistJob:
		return w.job(ctx, w.distDB)
	}
	return fmt.Errorf("loadgen: unknown op %q", op), false
}

// mutate adds one fresh fact to the live session and removes it again:
// two writes whose combined latency is the op's, leaving the database as
// it was.
func (w *worker) mutate(ctx context.Context) error {
	w.seq++
	fact := fmt.Sprintf("W(m%d_%d, a)", w.rng.Intn(1<<20), w.seq)
	var resp server.MutationResponse
	if err := w.req(ctx, http.MethodPost, "/v1/facts", server.MutationRequest{Facts: []string{fact}}, &resp); err != nil {
		return err
	}
	return w.req(ctx, http.MethodDelete, "/v1/facts", server.MutationRequest{Facts: []string{fact}}, &resp)
}

// job submits one forced brute-force job over dbText and polls it to a
// terminal status; the op's latency is submit-to-terminal.
func (w *worker) job(ctx context.Context, dbText string) (error, bool) {
	var created server.Job
	status, err := w.reqStatus(ctx, http.MethodPost, "/v1/jobs", server.Request{
		Database:   dbText,
		Query:      "R(x, x)",
		Kind:       server.KindVal,
		ForceBrute: true,
	}, &created)
	if status == http.StatusTooManyRequests {
		return nil, true
	}
	if err != nil {
		return err, false
	}
	for {
		var j server.Job
		if _, err := w.reqStatus(ctx, http.MethodGet, "/v1/jobs/"+created.ID, nil, &j); err != nil {
			return err, false
		}
		switch j.Status {
		case server.JobDone:
			return nil, false
		case server.JobFailed, server.JobCancelled:
			return fmt.Errorf("job %s ended %s: %s", j.ID, j.Status, j.Error), false
		}
		select {
		case <-ctx.Done():
			return ctx.Err(), false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (w *worker) post(ctx context.Context, path string, body, out interface{}) error {
	return w.req(ctx, http.MethodPost, path, body, out)
}

func (w *worker) req(ctx context.Context, method, path string, body, out interface{}) error {
	_, err := w.reqStatus(ctx, method, path, body, out)
	return err
}

// reqStatus issues one JSON request and decodes the response; HTTP >= 400
// becomes an error carrying the server's error body.
func (w *worker) reqStatus(ctx context.Context, method, path string, body, out interface{}) (int, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = strings.NewReader(string(raw))
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, eb.Error)
		}
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: bad JSON: %v", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// ping verifies the target answers its health probe before unleashing
// workers on it.
func ping(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("loadgen: target %s unreachable: %w", base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: target %s health probe returned HTTP %d", base, resp.StatusCode)
	}
	return nil
}

// loadLive installs a small live database for the mutation workload if
// the server does not already have one.
func loadLive(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/db", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil // a live session already exists; mutate against it
	}
	raw, err := json.Marshal(server.Request{Database: chainDatabase(1, 8)})
	if err != nil {
		return err
	}
	post, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/db", strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	post.Header.Set("Content-Type", "application/json")
	resp, err = client.Do(post)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: loading a live database for the mutate workload failed: HTTP %d", resp.StatusCode)
	}
	return nil
}

// submitAnchor starts the long checkpointed job.
func submitAnchor(ctx context.Context, client *http.Client, base string, valuations int64) (string, error) {
	n := 1
	for int64(1)<<n < valuations && n < 40 {
		n++
	}
	raw, err := json.Marshal(server.Request{
		Database:      starDatabase(1<<21+7, n),
		Query:         "R(x, x)",
		Kind:          server.KindVal,
		ForceBrute:    true,
		MaxValuations: 0,
	})
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", strings.NewReader(string(raw)))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, blob)
	}
	var j server.Job
	if err := json.Unmarshal(blob, &j); err != nil {
		return "", err
	}
	return j.ID, nil
}

// fetchStats grabs the final /v1/stats snapshot for the report.
func fetchStats(ctx context.Context, client *http.Client, base string) (*server.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	st := new(server.Stats)
	if err := json.Unmarshal(raw, st); err != nil {
		return nil, err
	}
	return st, nil
}

// buildReport merges the workers' aggregates.
func buildReport(cfg Config, base string, measured time.Duration, workers []*worker) *Report {
	rep := &Report{
		BaseURL:         base,
		Workers:         cfg.workers(),
		Seed:            cfg.seed(),
		Profile:         cfg.profile(),
		WarmupSeconds:   cfg.warmup().Seconds(),
		DurationSeconds: measured.Seconds(),
		PerOp:           make(map[string]*OpReport),
	}
	merged := make(map[string]*opAgg)
	for _, w := range workers {
		for op, a := range w.agg {
			m := merged[op]
			if m == nil {
				m = &opAgg{}
				merged[op] = m
			}
			m.hist.Merge(&a.hist)
			m.count += a.count
			m.errs += a.errs
			m.rejected += a.rejected
			for _, s := range a.samples {
				if len(m.samples) < 5 {
					m.samples = append(m.samples, s)
				}
			}
		}
	}
	for op, a := range merged {
		rep.Ops += a.count
		rep.Errors += a.errs
		rep.Rejected += a.rejected
		rep.PerOp[op] = &OpReport{
			Count:    a.count,
			Errors:   a.errs,
			Rejected: a.rejected,
			P50MS:    ms(a.hist.Quantile(0.50)),
			P90MS:    ms(a.hist.Quantile(0.90)),
			P99MS:    ms(a.hist.Quantile(0.99)),
			MaxMS:    ms(a.hist.Max()),
		}
		for _, s := range a.samples {
			if len(rep.ErrorSamples) < 8 {
				rep.ErrorSamples = append(rep.ErrorSamples, s)
			}
		}
	}
	sort.Strings(rep.ErrorSamples)
	if measured > 0 {
		rep.Throughput = float64(rep.Ops) / measured.Seconds()
	}
	return rep
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
