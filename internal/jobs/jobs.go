// Package jobs is the durable job subsystem behind the service's async
// API: a concurrency-capped runner with a bounded FIFO admission queue
// (overflow is rejected, not buffered), periodic persistence of each
// running job's progress and sweep checkpoint to a pluggable Store, TTL
// eviction of finished jobs, graceful drain-and-checkpoint on shutdown,
// and recovery — a restarted process resubmits the jobs the previous one
// left running or queued, resuming their sweeps from the last checkpoint.
//
// The manager is deliberately ignorant of what a job computes: requests,
// results and checkpoints are opaque json.RawMessage blobs, and the work
// itself is a RunFunc the caller provides (at Submit, or at Recover via a
// rehydration callback that turns a stored request back into work). The
// HTTP layer (internal/server) owns the wire types; this package owns
// scheduling and durability.
package jobs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted but waiting for a concurrency slot.
	StatusQueued Status = "queued"
	// StatusRunning: the RunFunc is executing.
	StatusRunning Status = "running"
	// StatusDone, StatusFailed, StatusCancelled are terminal.
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status can never change again.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Record is the persisted (and snapshot) form of one job. Request, Result
// and Checkpoint are opaque to the manager.
type Record struct {
	ID     string `json:"id"`
	Status Status `json:"status"`

	Request json.RawMessage `json:"request,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`

	Progress    float64 `json:"progress"`
	ShardsDone  int     `json:"shards_done,omitempty"`
	ShardsTotal int     `json:"shards_total,omitempty"`

	CancelRequested bool `json:"cancel_requested,omitempty"`
	// Resumed marks a job that was recovered from the store after a
	// restart and is continuing from its checkpoint.
	Resumed bool `json:"resumed,omitempty"`

	// Checkpoint is the job's latest sweep resume state; CheckpointAt is
	// when it was captured. Cleared when the job completes.
	Checkpoint   json.RawMessage `json:"checkpoint,omitempty"`
	CheckpointAt time.Time       `json:"checkpoint_at,omitzero"`

	// Detail is an opaque execution-detail blob the RunFunc may publish
	// (the distributed path reports its lease/worker state through it).
	// Unlike Checkpoint it survives completion, so a finished job still
	// shows how it ran.
	Detail json.RawMessage `json:"detail,omitempty"`

	CreatedAt  time.Time `json:"created_at"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
}

// RunFunc executes one job under ctx, reporting progress and exposing its
// checkpoint source through j. The returned blob becomes the job's
// result; a context-cancellation error becomes StatusCancelled (or, under
// drain, leaves the job resumable).
type RunFunc func(ctx context.Context, j *Job) (json.RawMessage, error)

// Errors returned by Submit. The HTTP layer maps ErrQueueFull to 429 +
// Retry-After and ErrDraining to 503.
var (
	ErrQueueFull = errors.New("jobs: admission queue is full")
	ErrDraining  = errors.New("jobs: server is draining, not admitting work")
)

// Config configures a Manager. The zero value is usable.
type Config struct {
	// MaxConcurrent caps how many jobs run at once; 0 means
	// DefaultMaxConcurrent, negative means 1.
	MaxConcurrent int
	// MaxQueue caps how many admitted jobs may wait for a slot; 0 means
	// DefaultMaxQueue, negative means no queueing (immediate rejection
	// when saturated).
	MaxQueue int
	// MaxJobs caps how many records the manager retains (terminal jobs
	// are evicted oldest-first over the cap); 0 means DefaultMaxJobs.
	MaxJobs int
	// TTL is how long finished jobs are retained before eviction; 0
	// means DefaultTTL, negative disables TTL eviction.
	TTL time.Duration
	// Store, when non-nil, persists records for crash recovery.
	Store Store
	// PersistInterval is how often running jobs' checkpoints are
	// captured and persisted; 0 means DefaultPersistInterval.
	PersistInterval time.Duration
	// BaseContext, when non-nil, parents every job's context: cancelling
	// it cancels all jobs.
	BaseContext context.Context
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// Defaults for Config fields left zero.
const (
	DefaultMaxConcurrent   = 2
	DefaultMaxQueue        = 32
	DefaultMaxJobs         = 1024
	DefaultTTL             = time.Hour
	DefaultPersistInterval = 2 * time.Second
)

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent == 0 {
		return DefaultMaxConcurrent
	}
	if c.MaxConcurrent < 0 {
		return 1
	}
	return c.MaxConcurrent
}

func (c Config) maxQueue() int {
	if c.MaxQueue == 0 {
		return DefaultMaxQueue
	}
	if c.MaxQueue < 0 {
		return 0
	}
	return c.MaxQueue
}

func (c Config) maxJobs() int {
	if c.MaxJobs <= 0 {
		return DefaultMaxJobs
	}
	return c.MaxJobs
}

func (c Config) ttl() time.Duration {
	if c.TTL == 0 {
		return DefaultTTL
	}
	return c.TTL
}

func (c Config) persistInterval() time.Duration {
	if c.PersistInterval <= 0 {
		return DefaultPersistInterval
	}
	return c.PersistInterval
}

// Job is one live job. All record state is read through Snapshot; the
// mutating methods are for the job's own RunFunc (progress, checkpoint
// source) and the manager.
type Job struct {
	m      *Manager
	run    RunFunc
	ctx    context.Context
	cancel context.CancelFunc
	// done is closed when the RunFunc has fully returned (or immediately
	// for jobs that never run: cancelled-while-queued, recovered
	// terminal records, SubmitDone).
	done chan struct{}

	mu         sync.Mutex
	rec        Record
	checkpoint func() json.RawMessage
	userCancel bool
}

// ID returns the job's immutable identifier.
func (j *Job) ID() string { return j.rec.ID }

// Done is closed when the job's work has fully stopped.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns a consistent copy of the job's record.
func (j *Job) Snapshot() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// SetProgress records a shard-completion update. Progress only moves
// forward and only while the job runs.
func (j *Job) SetProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rec.Status != StatusRunning {
		return
	}
	if total > 0 && (j.rec.ShardsTotal != total || done > j.rec.ShardsDone) {
		j.rec.ShardsDone = done
		j.rec.ShardsTotal = total
		j.rec.Progress = float64(done) / float64(total)
	}
}

// SetCheckpointSource installs the function the manager calls to capture
// the job's current sweep checkpoint (typically a closure over a
// count.Checkpointer's Snapshot). Call it from the RunFunc before the
// sweep starts.
func (j *Job) SetCheckpointSource(fn func() json.RawMessage) {
	j.mu.Lock()
	j.checkpoint = fn
	j.mu.Unlock()
}

// SetDetail publishes an opaque execution-detail blob onto the job's
// record (persisted with it, surfaced by the wire layer). Call it from
// the RunFunc whenever the detail changes.
func (j *Job) SetDetail(blob json.RawMessage) {
	j.mu.Lock()
	j.rec.Detail = blob
	j.mu.Unlock()
}

// Resumed reports whether this job was recovered from the store.
func (j *Job) Resumed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.Resumed
}

// Context returns the context the job runs under.
func (j *Job) Context() context.Context { return j.ctx }

// captureCheckpointLocked refreshes rec.Checkpoint from the source.
func (j *Job) captureCheckpointLocked(now time.Time) {
	if j.checkpoint == nil {
		return
	}
	if blob := j.checkpoint(); blob != nil {
		j.rec.Checkpoint = blob
		j.rec.CheckpointAt = now
	}
}

// Metrics is a snapshot of the manager's counters for observability
// endpoints (queue depth, scheduling totals, checkpoint freshness).
type Metrics struct {
	// Running and Queued are current gauges; Retained counts all records
	// the manager still holds.
	Running  int `json:"running"`
	Queued   int `json:"queued"`
	Retained int `json:"retained"`

	// Submitted counts admissions (including recovered resubmissions),
	// Rejected queue-full rejections, Resumed jobs recovered from the
	// store, Completed jobs that reached a terminal status, Evicted
	// records removed by TTL or capacity pruning.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Resumed   int64 `json:"resumed"`
	Completed int64 `json:"completed"`
	Evicted   int64 `json:"evicted"`

	// CheckpointAgeSeconds maps each running checkpointed job to the age
	// of its last persisted checkpoint.
	CheckpointAgeSeconds map[string]float64 `json:"checkpoint_age_seconds,omitempty"`
}

// Manager schedules, persists and recovers jobs. Create one with New;
// call Close when done.
type Manager struct {
	cfg   Config
	store Store
	base  context.Context
	now   func() time.Time

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // creation order
	queue     []*Job   // admitted, waiting for a slot (FIFO)
	running   int
	seq       int64
	draining  bool
	submitted int64
	rejected  int64
	resumed   int64
	completed int64
	evicted   int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New returns a Manager and starts its persistence/GC ticker.
func New(cfg Config) *Manager {
	m := &Manager{
		cfg:   cfg,
		store: cfg.Store,
		base:  cfg.BaseContext,
		now:   cfg.Clock,
		jobs:  make(map[string]*Job),
		stop:  make(chan struct{}),
	}
	if m.base == nil {
		m.base = context.Background()
	}
	if m.now == nil {
		m.now = time.Now
	}
	m.wg.Add(1)
	go m.tick()
	return m
}

// Close stops the background ticker and cancels every running job. It
// does not wait for RunFuncs to return and does not checkpoint — use
// Drain first for a graceful stop.
func (m *Manager) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
	m.mu.Lock()
	states := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		states = append(states, j)
	}
	m.mu.Unlock()
	for _, j := range states {
		j.cancel()
	}
}

// tick periodically checkpoints running jobs to the store and evicts
// expired finished ones.
func (m *Manager) tick() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.persistInterval())
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.CheckpointNow()
			m.GC()
		}
	}
}

// CheckpointNow captures and persists the checkpoint of every running
// job. The ticker calls it periodically; Drain calls it one last time
// after the sweeps have stopped.
func (m *Manager) CheckpointNow() {
	for _, j := range m.snapshotJobs() {
		j.mu.Lock()
		capture := j.rec.Status == StatusRunning && j.checkpoint != nil
		if capture {
			j.captureCheckpointLocked(m.now())
		}
		j.mu.Unlock()
		if capture {
			m.persist(j)
		}
	}
}

// GC evicts finished jobs whose TTL has expired, and prunes the oldest
// terminal records while over the retention cap.
func (m *Manager) GC() {
	ttl := m.cfg.ttl()
	now := m.now()
	m.mu.Lock()
	var expired []string
	if ttl > 0 {
		for id, j := range m.jobs {
			j.mu.Lock()
			if j.rec.Status.Terminal() && !j.rec.FinishedAt.IsZero() && now.Sub(j.rec.FinishedAt) > ttl {
				expired = append(expired, id)
			}
			j.mu.Unlock()
		}
		for _, id := range expired {
			delete(m.jobs, id)
			m.evicted++
		}
		if len(expired) > 0 {
			kept := m.order[:0]
			for _, id := range m.order {
				if _, ok := m.jobs[id]; ok {
					kept = append(kept, id)
				}
			}
			m.order = kept
		}
	}
	expired = append(expired, m.pruneLocked()...)
	m.mu.Unlock()
	if m.store != nil {
		for _, id := range expired {
			_ = m.store.Delete(id)
		}
	}
}

// pruneLocked evicts the oldest terminal jobs while over the retention
// cap, returning the evicted IDs (the caller deletes them from the
// store). Running and queued jobs are never evicted.
func (m *Manager) pruneLocked() []string {
	max := m.cfg.maxJobs()
	if len(m.jobs) <= max {
		return nil
	}
	var evicted []string
	kept := m.order[:0]
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		terminal := j.rec.Status.Terminal()
		j.mu.Unlock()
		if len(m.jobs) > max && terminal {
			delete(m.jobs, id)
			evicted = append(evicted, id)
			m.evicted++
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
	return evicted
}

// Submit admits a job: it starts immediately when a concurrency slot is
// free, queues when the FIFO has room, and is rejected with ErrQueueFull
// otherwise (ErrDraining during shutdown). req is the opaque request
// blob persisted for recovery.
func (m *Manager) Submit(req json.RawMessage, run RunFunc) (*Job, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	canRun := m.running < m.cfg.maxConcurrent()
	if !canRun && len(m.queue) >= m.cfg.maxQueue() {
		m.rejected++
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	j := m.newJobLocked(req, run)
	if canRun {
		j.rec.Status = StatusRunning
		m.running++
	} else {
		j.rec.Status = StatusQueued
		m.queue = append(m.queue, j)
	}
	var evicted []string
	evicted = m.pruneLocked()
	m.mu.Unlock()
	m.dropFromStore(evicted)
	m.persist(j)
	if canRun {
		m.start(j)
	}
	return j, nil
}

// SubmitDone registers an already-finished job (a request answered from
// the result cache): it holds a slot in the registry so clients can poll
// its result, but never consumes a concurrency slot.
func (m *Manager) SubmitDone(req, result json.RawMessage) (*Job, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	j := m.newJobLocked(req, nil)
	j.rec.Status = StatusDone
	j.rec.Result = result
	j.rec.Progress = 1
	j.rec.FinishedAt = m.now()
	m.completed++
	var evicted []string
	evicted = m.pruneLocked()
	m.mu.Unlock()
	close(j.done)
	m.dropFromStore(evicted)
	m.persist(j)
	return j, nil
}

// newJobLocked allocates and registers a job (m.mu held). The context is
// created here so even a queued job can be cancelled.
func (m *Manager) newJobLocked(req json.RawMessage, run RunFunc) *Job {
	m.seq++
	m.submitted++
	ctx, cancel := context.WithCancel(m.base)
	j := &Job{
		m:      m,
		run:    run,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		rec: Record{
			ID:        fmt.Sprintf("job-%d-%s", m.seq, randHex(4)),
			Request:   req,
			CreatedAt: m.now(),
		},
	}
	m.jobs[j.rec.ID] = j
	m.order = append(m.order, j.rec.ID)
	return j
}

// start launches the job's RunFunc (the job is already StatusRunning).
func (m *Manager) start(j *Job) {
	go func() {
		res, err := runGuarded(j)
		m.finish(j, res, err)
	}()
}

// runGuarded runs the job's RunFunc behind a panic boundary: a panic
// fails this job with an error naming the panic value, and the manager
// goes on to free its slot and start the next queued job, instead of the
// process and every job in it going down.
func runGuarded(j *Job) (res json.RawMessage, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("jobs: job panicked: %v", v)
		}
	}()
	return j.run(j.ctx, j)
}

// finish settles a job whose RunFunc returned, persists its final
// record, frees its slot and starts the next queued job if any.
//
// A cancellation during drain (and not requested by a client) is the one
// non-terminal outcome: the record keeps StatusRunning with its final
// checkpoint, so the store describes a job the next process must resume.
func (m *Manager) finish(j *Job, res json.RawMessage, err error) {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	j.mu.Lock()
	cancelled := errors.Is(err, context.Canceled) || j.ctx.Err() != nil
	switch {
	case err == nil:
		j.rec.Status = StatusDone
		j.rec.Result = res
		j.rec.Progress = 1
		if j.rec.ShardsTotal > 0 {
			j.rec.ShardsDone = j.rec.ShardsTotal
		}
		j.rec.Checkpoint = nil
		j.rec.CheckpointAt = time.Time{}
	case cancelled && draining && !j.userCancel:
		// The sweep's final flush has landed in the checkpointer; capture
		// it so the persisted record resumes exactly here.
		j.captureCheckpointLocked(m.now())
	case cancelled:
		j.rec.Status = StatusCancelled
		j.rec.Error = context.Canceled.Error()
	default:
		j.rec.Status = StatusFailed
		j.rec.Error = err.Error()
	}
	terminal := j.rec.Status.Terminal()
	if terminal {
		j.rec.FinishedAt = m.now()
	}
	j.mu.Unlock()
	// Persist before Done closes: Drain returns once every job it cancelled
	// is done, and the drained job's final record must be in the store by
	// then.
	m.persist(j)
	close(j.done)
	j.cancel()
	m.mu.Lock()
	m.running--
	if terminal {
		m.completed++
	}
	var next *Job
	if !m.draining && len(m.queue) > 0 && m.running < m.cfg.maxConcurrent() {
		next = m.queue[0]
		m.queue = m.queue[1:]
		next.mu.Lock()
		next.rec.Status = StatusRunning
		next.mu.Unlock()
		m.running++
	}
	m.mu.Unlock()
	if next != nil {
		m.persist(next)
		m.start(next)
	}
}

// Get returns the job with the given ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// snapshotJobs returns the retained jobs in creation order.
func (m *Manager) snapshotJobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// List returns snapshots of all retained jobs in creation order.
func (m *Manager) List() []Record {
	js := m.snapshotJobs()
	out := make([]Record, len(js))
	for i, j := range js {
		out[i] = j.Snapshot()
	}
	return out
}

// Cancel requests cancellation of a job. It reports whether the job was
// still live (queued jobs settle to cancelled immediately; running ones
// stop when their sweep observes the context). Cancelling a terminal job
// reports false: its status will never change.
func (m *Manager) Cancel(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, false
	}
	// Dequeue if queued: the slot it never took goes to no one.
	queuedAt := -1
	for i, q := range m.queue {
		if q == j {
			queuedAt = i
			break
		}
	}
	if queuedAt >= 0 {
		m.queue = append(m.queue[:queuedAt], m.queue[queuedAt+1:]...)
	}
	m.mu.Unlock()
	j.mu.Lock()
	switch {
	case queuedAt >= 0:
		j.rec.CancelRequested = true
		j.rec.Status = StatusCancelled
		j.rec.Error = context.Canceled.Error()
		j.rec.FinishedAt = m.now()
		j.mu.Unlock()
		close(j.done)
		j.cancel()
		m.mu.Lock()
		m.completed++
		m.mu.Unlock()
		m.persist(j)
		return j, true
	case j.rec.Status == StatusRunning:
		j.rec.CancelRequested = true
		j.userCancel = true
		j.mu.Unlock()
		j.cancel()
		return j, true
	default:
		j.mu.Unlock()
		return j, false
	}
}

// Drain gracefully stops the manager for shutdown: no new admissions,
// running jobs are cancelled and — once their sweeps have flushed their
// final positions — persisted as resumable running records; queued jobs
// stay queued in the store. Blocks until every running job has stopped
// or ctx expires.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	m.draining = true
	running := make([]*Job, 0, m.running)
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		j.mu.Lock()
		if j.rec.Status == StatusRunning && j.run != nil {
			running = append(running, j)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, j := range running {
		j.cancel()
	}
	for _, j := range running {
		select {
		case <-j.done:
		case <-ctx.Done():
			return
		}
	}
}

// Recover loads the store's records into the manager: terminal records
// are registered for retention (clients can still fetch results across a
// restart), and running/queued records are resubmitted in creation order
// through rehydrate, which turns a stored request back into a RunFunc —
// typically one that seeds its sweep from rec.Checkpoint. A record
// rehydrate rejects is marked failed. Returns how many jobs resumed.
//
// Call Recover once, after New and before serving traffic.
func (m *Manager) Recover(rehydrate func(rec *Record) (RunFunc, error)) (int, error) {
	if m.store == nil {
		return 0, nil
	}
	recs, err := m.store.List()
	if err != nil {
		return 0, err
	}
	sort.Slice(recs, func(i, k int) bool {
		if !recs[i].CreatedAt.Equal(recs[k].CreatedAt) {
			return recs[i].CreatedAt.Before(recs[k].CreatedAt)
		}
		return recs[i].ID < recs[k].ID
	})
	resumed := 0
	for _, rec := range recs {
		if rec.Status.Terminal() {
			m.adoptTerminal(rec)
			continue
		}
		run, rerr := rehydrate(rec)
		if rerr != nil {
			rec.Status = StatusFailed
			rec.Error = rerr.Error()
			rec.FinishedAt = m.now()
			m.adoptTerminal(rec)
			continue
		}
		if m.resubmit(rec, run) {
			resumed++
		}
	}
	return resumed, nil
}

// adoptTerminal registers a recovered terminal record (done is already
// closed; it never runs).
func (m *Manager) adoptTerminal(rec *Record) {
	ctx, cancel := context.WithCancel(m.base)
	cancel()
	j := &Job{m: m, ctx: ctx, cancel: cancel, done: make(chan struct{}), rec: *rec}
	close(j.done)
	m.mu.Lock()
	if _, dup := m.jobs[rec.ID]; !dup {
		m.jobs[rec.ID] = j
		m.order = append(m.order, rec.ID)
	}
	m.mu.Unlock()
	m.persist(j)
}

// resubmit re-admits a recovered live record under its original ID. The
// admission queue is bypassed for capacity (these jobs were already
// admitted once); only the concurrency cap decides run-vs-queue.
func (m *Manager) resubmit(rec *Record, run RunFunc) bool {
	ctx, cancel := context.WithCancel(m.base)
	j := &Job{m: m, run: run, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	j.rec = *rec
	j.rec.Resumed = true
	j.rec.ShardsDone, j.rec.ShardsTotal = 0, 0
	m.mu.Lock()
	if _, dup := m.jobs[rec.ID]; dup {
		m.mu.Unlock()
		cancel()
		return false
	}
	m.submitted++
	m.resumed++
	m.jobs[rec.ID] = j
	m.order = append(m.order, rec.ID)
	canRun := m.running < m.cfg.maxConcurrent()
	if canRun {
		j.rec.Status = StatusRunning
		m.running++
	} else {
		j.rec.Status = StatusQueued
		m.queue = append(m.queue, j)
	}
	m.mu.Unlock()
	m.persist(j)
	if canRun {
		m.start(j)
	}
	return true
}

// Metrics returns a snapshot of the manager's gauges and counters.
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	mt := Metrics{
		Running:   m.running,
		Queued:    len(m.queue),
		Retained:  len(m.jobs),
		Submitted: m.submitted,
		Rejected:  m.rejected,
		Resumed:   m.resumed,
		Completed: m.completed,
		Evicted:   m.evicted,
	}
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	now := m.now()
	for _, j := range js {
		j.mu.Lock()
		if j.rec.Status == StatusRunning && !j.rec.CheckpointAt.IsZero() {
			if mt.CheckpointAgeSeconds == nil {
				mt.CheckpointAgeSeconds = make(map[string]float64)
			}
			mt.CheckpointAgeSeconds[j.rec.ID] = now.Sub(j.rec.CheckpointAt).Seconds()
		}
		j.mu.Unlock()
	}
	return mt
}

// persist writes the job's current record to the store (best effort —
// an unreachable store must not take down the scheduler; the next tick
// retries).
func (m *Manager) persist(j *Job) {
	if m.store == nil {
		return
	}
	rec := j.Snapshot()
	_ = m.store.Put(&rec)
}

// dropFromStore deletes evicted records (best effort).
func (m *Manager) dropFromStore(ids []string) {
	if m.store == nil {
		return
	}
	for _, id := range ids {
		_ = m.store.Delete(id)
	}
}

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := cryptorand.Read(b); err != nil {
		// The sequence number alone keeps IDs unique within a process.
		return "0"
	}
	return hex.EncodeToString(b)
}
