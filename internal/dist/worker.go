package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// DefaultPoll is the idle lease-pull cadence of a worker with nothing to
// do.
const DefaultPoll = 250 * time.Millisecond

// engineCacheSize bounds the per-worker compiled-engine cache: leases of
// the same spec share one engine (concurrent cursors are safe), and a
// worker rarely interleaves more than a few jobs.
const engineCacheSize = 4

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (the serve address).
	Coordinator string
	// Name labels the worker in /v1/stats. Defaults to the assigned ID.
	Name string
	// Parallel is how many leases the worker sweeps concurrently.
	// Defaults to GOMAXPROCS.
	Parallel int
	// Poll is the idle lease-pull cadence. 0 means DefaultPoll.
	Poll time.Duration
	// Token is the shared cluster secret sent on every request, matching
	// the coordinator's -cluster-token. Empty means no token header.
	Token string
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Logf, when set, receives worker lifecycle events.
	Logf func(format string, args ...any)
}

// worker is the client side of the protocol: it registers, heartbeats,
// pulls leases, sweeps them with count.SweepShardRange, and streams
// partials back. It survives coordinator restarts by re-registering
// whenever the coordinator stops recognizing it.
type worker struct {
	cfg WorkerConfig

	mu sync.Mutex
	id string
	// engines caches compiled engines by spec digest — never by the
	// coordinator-assigned job ID, which is minted from an in-memory
	// counter and can recycle across a coordinator restart to name a
	// different spec.
	engines map[string]*sweep.Engine
}

// Sentinel outcomes of a publish: the lease is gone (abandon the range
// silently — the coordinator re-issued or finished it) or the worker
// itself is gone (re-register).
var (
	errLeaseGone  = errors.New("dist: lease no longer live")
	errWorkerGone = errors.New("dist: worker no longer registered")
)

// RunWorker runs a worker until ctx cancels: register (retrying while
// the coordinator is unreachable), then pull/sweep/publish in
// cfg.Parallel runner goroutines, re-registering from scratch whenever
// the coordinator forgets us (a restart) or refuses our protocol
// version.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	w := &worker{cfg: cfg, engines: make(map[string]*sweep.Engine)}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var reg RegisterResponse
		err := w.post(ctx, "/cluster/register", RegisterRequest{
			Name:         cfg.Name,
			Parallel:     cfg.Parallel,
			ProtoVersion: ProtoVersion,
		}, &reg)
		if err != nil {
			var pe *protoError
			if errors.As(err, &pe) && (pe.code == CodeVersionSkew || pe.code == CodeUnauthorized) {
				// Retrying with the same build and token cannot succeed.
				return fmt.Errorf("dist: coordinator refused worker: %s", pe.msg)
			}
			cfg.Logf("register against %s failed: %v (retrying)", cfg.Coordinator, err)
			if !sleepCtx(ctx, cfg.Poll) {
				return ctx.Err()
			}
			continue
		}
		w.mu.Lock()
		w.id = reg.WorkerID
		w.mu.Unlock()
		cfg.Logf("registered as %s (lease ttl %dms, %d runners)", reg.WorkerID, reg.LeaseTTLMS, cfg.Parallel)
		w.session(ctx, time.Duration(reg.LeaseTTLMS)*time.Millisecond)
	}
}

// session runs one registration's worth of work: a heartbeat loop plus
// Parallel lease runners, all stopping when the coordinator stops
// recognizing the worker (or ctx cancels).
func (w *worker) session(ctx context.Context, ttl time.Duration) {
	sctx, invalidate := context.WithCancel(ctx)
	defer invalidate()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(sctx, invalidate, ttl)
	}()
	for i := 0; i < w.cfg.Parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.runLoop(sctx, invalidate)
		}()
	}
	wg.Wait()
}

// heartbeatLoop renews the registration (and every held lease) well
// inside the lease TTL.
func (w *worker) heartbeatLoop(ctx context.Context, invalidate context.CancelFunc, ttl time.Duration) {
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	for {
		if !sleepCtx(ctx, interval) {
			return
		}
		var resp HeartbeatResponse
		err := w.post(ctx, "/cluster/heartbeat", HeartbeatRequest{WorkerID: w.workerID()}, &resp)
		if errors.Is(err, errWorkerGone) {
			w.cfg.Logf("coordinator no longer knows us; re-registering")
			invalidate()
			return
		}
		if err != nil && ctx.Err() == nil {
			w.cfg.Logf("heartbeat: %v", err)
		}
	}
}

// runLoop is one lease runner: pull, sweep, publish, repeat.
func (w *worker) runLoop(ctx context.Context, invalidate context.CancelFunc) {
	for {
		if ctx.Err() != nil {
			return
		}
		lease, err := w.pull(ctx)
		if errors.Is(err, errWorkerGone) {
			invalidate()
			return
		}
		if err != nil || lease == nil {
			if !sleepCtx(ctx, w.cfg.Poll) {
				return
			}
			continue
		}
		w.runLease(ctx, invalidate, lease)
	}
}

// pull asks for one lease; nil means no work is pending.
func (w *worker) pull(ctx context.Context) (*Lease, error) {
	var resp LeaseResponse
	if err := w.post(ctx, "/cluster/lease", LeaseRequest{WorkerID: w.workerID()}, &resp); err != nil {
		return nil, err
	}
	return resp.Lease, nil
}

// runLease sweeps one range, streaming partials at the coordinator's
// stride. Failure taxonomy: a compile failure or space mismatch is
// reported with /cluster/fail (the range requeues and, if it keeps
// failing, fails the job); a lost lease or dead coordinator is abandoned
// silently (the TTL machinery owns recovery); a lost registration
// invalidates the session.
func (w *worker) runLease(ctx context.Context, invalidate context.CancelFunc, lease *Lease) {
	eng, err := w.engineFor(lease)
	if err != nil {
		w.cfg.Logf("lease %s: %v", lease.ID, err)
		w.fail(ctx, lease, err.Error())
		return
	}
	final, err := count.SweepShardRange(ctx, eng, lease.Range, lease.Stride, func(s count.ShardCheckpoint) error {
		return w.publish(ctx, lease.ID, s, false)
	})
	switch {
	case err == nil:
		err = w.publish(ctx, lease.ID, final, true)
		switch {
		case errors.Is(err, errWorkerGone):
			invalidate()
		case err != nil && ctx.Err() == nil:
			w.cfg.Logf("lease %s: final publish: %v (abandoning; coordinator will re-issue)", lease.ID, err)
		}
	case ctx.Err() != nil:
		// Shutting down; the lease expires and re-issues on its own.
	case errors.Is(err, errLeaseGone):
		// Re-issued under a new ID or the job is gone: drop it.
	case errors.Is(err, errWorkerGone):
		invalidate()
	case errors.Is(err, count.ErrShardCheckpoint):
		w.fail(ctx, lease, err.Error())
	default:
		w.cfg.Logf("lease %s: %v (abandoning; coordinator will re-issue)", lease.ID, err)
	}
}

// specKey digests everything that determines a lease's compiled engine:
// the database and query text and the sweep kind. Length-framing keeps
// distinct field splits from colliding.
func (l *Lease) specKey() string {
	h := sha256.New()
	for _, s := range []string{l.Database, l.Query, l.Kind} {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	return string(h.Sum(nil))
}

// engineFor compiles (or reuses) the engine for a lease's spec,
// cross-checking the enumerated-space size against the coordinator's: a
// disagreement means the two processes would not even agree on what
// index i denotes, so the worker refuses rather than sweeping garbage.
func (w *worker) engineFor(lease *Lease) (*sweep.Engine, error) {
	key := lease.specKey()
	w.mu.Lock()
	eng := w.engines[key]
	w.mu.Unlock()
	if eng == nil {
		db, err := core.ParseDatabaseString(lease.Database)
		if err != nil {
			return nil, fmt.Errorf("parse database: %w", err)
		}
		q, err := cq.Parse(lease.Query)
		if err != nil {
			return nil, fmt.Errorf("parse query: %w", err)
		}
		mode := sweep.ModeValuations
		if lease.Kind == "comp" {
			mode = sweep.ModeCompletions
		}
		eng, err = sweep.Compile(db, q, mode)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		w.mu.Lock()
		for id := range w.engines {
			if len(w.engines) < engineCacheSize {
				break
			}
			delete(w.engines, id)
		}
		w.engines[key] = eng
		w.mu.Unlock()
	}
	if got := eng.Size().String(); got != lease.Space {
		return nil, fmt.Errorf("enumerated space %s, coordinator expects %s (version skew?)", got, lease.Space)
	}
	return eng, nil
}

// publish streams one partial (or the final state) for a lease.
func (w *worker) publish(ctx context.Context, leaseID string, s count.ShardCheckpoint, done bool) error {
	var resp ProgressResponse
	return w.post(ctx, "/cluster/progress", ProgressRequest{
		WorkerID: w.workerID(),
		LeaseID:  leaseID,
		Done:     done,
		Range:    s,
	}, &resp)
}

// fail reports an unsweepable lease.
func (w *worker) fail(ctx context.Context, lease *Lease, msg string) {
	var resp ProgressResponse
	err := w.post(ctx, "/cluster/fail", FailRequest{
		WorkerID: w.workerID(),
		LeaseID:  lease.ID,
		Error:    msg,
	}, &resp)
	if err != nil && ctx.Err() == nil {
		w.cfg.Logf("lease %s: fail report: %v", lease.ID, err)
	}
}

func (w *worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// protoError is a structured refusal from the coordinator.
type protoError struct {
	status int
	code   string
	msg    string
}

func (e *protoError) Error() string {
	return fmt.Sprintf("coordinator refused (%d %s): %s", e.status, e.code, e.msg)
}

// Unwrap maps the protocol codes workers branch on onto sentinels.
func (e *protoError) Unwrap() error {
	switch e.code {
	case CodeUnknownWorker:
		return errWorkerGone
	case CodeUnknownLease:
		return errLeaseGone
	}
	return nil
}

// post is one JSON round trip. A 204 leaves resp untouched; a non-2xx
// decodes the structured error body into a *protoError.
func (w *worker) post(ctx context.Context, path string, body, resp any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if w.cfg.Token != "" {
		req.Header.Set(TokenHeader, w.cfg.Token)
	}
	res, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}()
	if res.StatusCode == http.StatusNoContent {
		return nil
	}
	if res.StatusCode/100 != 2 {
		var eb ErrorBody
		if err := json.NewDecoder(res.Body).Decode(&eb); err != nil {
			return fmt.Errorf("coordinator returned %d (unparseable body: %v)", res.StatusCode, err)
		}
		return &protoError{status: res.StatusCode, code: eb.Code, msg: eb.Error}
	}
	return json.NewDecoder(res.Body).Decode(resp)
}

// sleepCtx sleeps d unless ctx cancels first; false means it did.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
