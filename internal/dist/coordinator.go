package dist

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Defaults for Config's zero values.
const (
	DefaultLeaseTTL        = 10 * time.Second
	DefaultLeaseValuations = 1 << 24
	DefaultStride          = 1 << 20
	DefaultMinLeases       = 8
	DefaultMaxLeases       = 512
	DefaultMaxLeaseFails   = 5
)

// deadWorkerTTLs is how many lease TTLs a worker may go without any
// heartbeat before it is dropped from the registry (its leases requeue
// on their own TTL regardless).
const deadWorkerTTLs = 3

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// LeaseTTL is how long a lease stays assigned without being renewed
	// by a progress publish or worker heartbeat before it reverts to the
	// pending pool. 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// LeaseValuations is the target number of valuations per lease; a
	// job's range count is space/LeaseValuations clamped to
	// [MinLeases, MaxLeases]. 0 means DefaultLeaseValuations.
	LeaseValuations int64
	// MinLeases / MaxLeases clamp the per-job lease count: enough ranges
	// that loss is cheap and stragglers rebalance, few enough that the
	// table stays small. 0 means the defaults.
	MinLeases, MaxLeases int
	// Stride is the publish stride handed to workers (valuations between
	// partials). 0 means DefaultStride.
	Stride int64
	// MaxLeaseFails is how many worker-reported failures one range
	// tolerates before the whole job fails. 0 means DefaultMaxLeaseFails.
	MaxLeaseFails int
	// Token, when non-empty, is a shared secret every /cluster request
	// must carry in the dist.TokenHeader header. The cluster endpoints
	// share the serving mux, so without a token any client that can
	// reach the serve port can register as a worker and publish
	// tallies; set one whenever that port is not confined to a trusted
	// network.
	Token string
	// now overrides time.Now in tests.
	now func() time.Time
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL <= 0 {
		return DefaultLeaseTTL
	}
	return c.LeaseTTL
}

func (c Config) leaseValuations() int64 {
	if c.LeaseValuations <= 0 {
		return DefaultLeaseValuations
	}
	return c.LeaseValuations
}

func (c Config) stride() int64 {
	if c.Stride <= 0 {
		return DefaultStride
	}
	return c.Stride
}

func (c Config) minLeases() int {
	if c.MinLeases <= 0 {
		return DefaultMinLeases
	}
	return c.MinLeases
}

func (c Config) maxLeases() int {
	if c.MaxLeases <= 0 {
		return DefaultMaxLeases
	}
	return c.MaxLeases
}

func (c Config) maxLeaseFails() int {
	if c.MaxLeaseFails <= 0 {
		return DefaultMaxLeaseFails
	}
	return c.MaxLeaseFails
}

// JobSpec is everything a distributed sweep needs: the database text, the
// query text, the sweep kind, and the compile escape hatches — the same
// knobs the HTTP count API exposes, because leases forward them verbatim
// to workers.
type JobSpec struct {
	Database       string
	Query          string
	Kind           string // "val" | "comp"
	DisableBitsets bool
	SyntacticOrder bool
}

// slotState is the lifecycle of one lease range.
type slotState int

const (
	slotPending slotState = iota
	slotLeased
	slotDone
)

// slot is one contiguous range of one job's index space: its interval,
// the coordinator's last accepted watermark and partial accumulator, and
// the live lease (if any).
type slot struct {
	index    int
	lo, hi   *big.Int
	next     *big.Int
	tally    count.Tally
	entries  []count.CompletionRecord
	state    slotState
	leaseID  string
	worker   string
	expires  time.Time
	reissues int
	failures int
}

// distJob is one distributed sweep: its spec, the engine the coordinator
// validates partials and merges against, and the lease table.
type distJob struct {
	id          string
	spec        JobSpec
	completions bool
	eng         *sweep.Engine
	size        *big.Int
	slots       []*slot
	remaining   int
	cancelled   bool

	done         chan struct{}
	result       *big.Int
	err          error
	reissued     int64
	workers      map[string]bool // every worker that ever completed a range
	jobsDoneHook func()

	// notifyMu serializes progress callbacks (they come from HTTP handler
	// goroutines and from Wait) and keeps them monotone.
	notifyMu     sync.Mutex
	progress     func(done, total int)
	lastNotified int
}

// workerState is the registry entry of one joined worker process.
type workerState struct {
	id       string
	name     string
	parallel int
	joined   time.Time
	lastBeat time.Time
	held     map[string]*slotRef
	finished int64
	visited  *big.Int
}

// slotRef resolves a live lease ID to its job and range.
type slotRef struct {
	job  *distJob
	slot *slot
}

// Coordinator owns the worker registry and the lease tables of all
// active distributed jobs. One mutex guards everything: the protocol's
// unit of work (accept a partial, issue a lease) is far coarser than the
// sweep work it coordinates.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	workers map[string]*workerState
	jobs    []*distJob
	leases  map[string]*slotRef
	rr      int // round-robin job cursor, so one huge job cannot starve others
	seq     int64

	leasesCompleted int64
	leasesReissued  int64
	jobsStarted     int64
	jobsCompleted   int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator starts a coordinator and its lease-expiry loop; Close
// stops it.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		leases:  make(map[string]*slotRef),
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.expireLoop()
	return c
}

// Close stops the expiry loop. Active jobs are not failed — their Wait
// callers own their lifecycle — but no further leases expire or issue.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// expireLoop requeues expired leases and drops silent workers.
func (c *Coordinator) expireLoop() {
	defer c.wg.Done()
	// Clamped: a sub-4ns LeaseTTL would otherwise hand NewTicker a
	// non-positive interval and panic the loop.
	tick := time.NewTicker(max(c.cfg.leaseTTL()/4, time.Millisecond))
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.expire()
		}
	}
}

// expire is one pass of the loss detector: leases past their TTL revert
// to pending under a bumped reissue count, and workers silent for
// deadWorkerTTLs lease TTLs are dropped (expiring their leases with
// them).
func (c *Coordinator) expire() {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) > deadWorkerTTLs*c.cfg.leaseTTL() {
			for leaseID := range w.held {
				c.requeueLocked(leaseID)
			}
			delete(c.workers, id)
		}
	}
	for leaseID, ref := range c.leases {
		if now.After(ref.slot.expires) {
			c.requeueLocked(leaseID)
		}
	}
}

// requeueLocked reverts a live lease to the pending pool at its last
// accepted watermark. The next issue gets a fresh lease ID, so a
// publish from the lease's previous holder is rejected as unknown.
func (c *Coordinator) requeueLocked(leaseID string) {
	ref, ok := c.leases[leaseID]
	if !ok {
		return
	}
	delete(c.leases, leaseID)
	if w, ok := c.workers[ref.slot.worker]; ok {
		delete(w.held, leaseID)
	}
	s := ref.slot
	s.state = slotPending
	s.leaseID = ""
	s.worker = ""
	s.reissues++
	ref.job.reissued++
	c.leasesReissued++
}

// Register admits a worker process. Version skew is refused up front:
// canonical completion encodings are only comparable between identical
// builds, and refusing at the door beats corrupting a merge later.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, *apiError) {
	if req.ProtoVersion != ProtoVersion {
		return RegisterResponse{}, &apiError{
			status: 400,
			code:   CodeVersionSkew,
			msg:    fmt.Sprintf("worker protocol version %d, coordinator wants %d", req.ProtoVersion, ProtoVersion),
		}
	}
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	w := &workerState{
		id:       fmt.Sprintf("w-%d", c.seq),
		name:     req.Name,
		parallel: req.Parallel,
		joined:   now,
		lastBeat: now,
		held:     make(map[string]*slotRef),
		visited:  new(big.Int),
	}
	if w.name == "" {
		w.name = w.id
	}
	c.workers[w.id] = w
	return RegisterResponse{
		WorkerID:     w.id,
		LeaseTTLMS:   c.cfg.leaseTTL().Milliseconds(),
		ProtoVersion: ProtoVersion,
	}, nil
}

// Heartbeat renews a worker's liveness and every lease it holds.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, *apiError) {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return HeartbeatResponse{}, errUnknownWorker(req.WorkerID)
	}
	w.lastBeat = now
	for _, ref := range w.held {
		ref.slot.expires = now.Add(c.cfg.leaseTTL())
	}
	return HeartbeatResponse{OK: true, Pending: c.pendingLocked()}, nil
}

// pendingLocked counts unleased, unfinished ranges across active jobs.
func (c *Coordinator) pendingLocked() int {
	n := 0
	for _, j := range c.jobs {
		for _, s := range j.slots {
			if s.state == slotPending {
				n++
			}
		}
	}
	return n
}

// Lease hands the calling worker one pending range, round-robining
// across jobs so a huge sweep cannot starve small ones. A nil lease with
// a nil error means no work is pending (HTTP 204).
func (c *Coordinator) Lease(req LeaseRequest) (*Lease, *apiError) {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return nil, errUnknownWorker(req.WorkerID)
	}
	w.lastBeat = now
	n := len(c.jobs)
	for k := 1; k <= n; k++ {
		j := c.jobs[(c.rr+k)%n]
		for _, s := range j.slots {
			if s.state != slotPending {
				continue
			}
			c.rr = (c.rr + k) % n
			return c.issueLocked(now, w, j, s), nil
		}
	}
	return nil, nil
}

// issueLocked assigns one range to w under a fresh lease ID.
func (c *Coordinator) issueLocked(now time.Time, w *workerState, j *distJob, s *slot) *Lease {
	c.seq++
	s.state = slotLeased
	s.leaseID = fmt.Sprintf("l-%d", c.seq)
	s.worker = w.id
	s.expires = now.Add(c.cfg.leaseTTL())
	ref := &slotRef{job: j, slot: s}
	c.leases[s.leaseID] = ref
	w.held[s.leaseID] = ref
	return &Lease{
		ID:             s.leaseID,
		JobID:          j.id,
		Index:          s.index,
		Database:       j.spec.Database,
		Query:          j.spec.Query,
		Kind:           j.spec.Kind,
		DisableBitsets: j.spec.DisableBitsets,
		SyntacticOrder: j.spec.SyntacticOrder,
		Space:          j.size.String(),
		Range: count.ShardCheckpoint{
			Lo:      s.lo.String(),
			Next:    s.next.String(),
			Hi:      s.hi.String(),
			Count:   s.tally,
			Entries: append([]count.CompletionRecord(nil), s.entries...),
		},
		Stride: c.cfg.stride(),
	}
}

// Progress accepts one partial (or, with Done, a range's final state).
// The payload is validated against the job's engine before anything is
// recorded: positions must stay within the range and move forward, the
// tally must parse and not exceed the valuations visited, and completion
// records must decode — so a version-skewed or corrupt worker yields a
// structured bad_checkpoint error, never a corrupt merge.
func (c *Coordinator) Progress(req ProgressRequest) (ProgressResponse, *apiError) {
	now := c.cfg.now()
	c.mu.Lock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		return ProgressResponse{}, errUnknownWorker(req.WorkerID)
	}
	w.lastBeat = now
	ref, ok := c.leases[req.LeaseID]
	if !ok || ref.slot.worker != req.WorkerID {
		c.mu.Unlock()
		return ProgressResponse{}, &apiError{status: 409, code: CodeUnknownLease,
			msg: fmt.Sprintf("lease %s is not live (expired and re-issued, completed, or its job is gone)", req.LeaseID)}
	}
	j, s := ref.job, ref.slot
	if err := validatePartial(j, s, &req); err != nil {
		c.mu.Unlock()
		return ProgressResponse{}, err
	}
	next, _ := new(big.Int).SetString(req.Range.Next, 10)
	w.visited.Add(w.visited, new(big.Int).Sub(next, s.next))
	s.next = next
	if j.completions {
		s.entries = append(s.entries, req.Range.Entries...)
	} else {
		s.tally = req.Range.Count
	}
	s.expires = now.Add(c.cfg.leaseTTL())
	var finished *distJob
	if req.Done {
		delete(c.leases, req.LeaseID)
		delete(w.held, req.LeaseID)
		s.state = slotDone
		s.leaseID = ""
		w.finished++
		c.leasesCompleted++
		j.workers[w.id] = true
		j.remaining--
		if j.remaining == 0 {
			finished = j
			c.detachLocked(j)
		}
	}
	done, total := len(j.slots)-j.remaining, len(j.slots)
	c.mu.Unlock()
	if req.Done {
		j.notify(done, total)
	}
	if finished != nil {
		finished.finish()
	}
	return ProgressResponse{OK: true}, nil
}

// notify delivers one progress callback, serialized and clamped monotone
// (completion notifications race only in delivery order, never in value).
func (j *distJob) notify(done, total int) {
	j.notifyMu.Lock()
	defer j.notifyMu.Unlock()
	if j.progress == nil || done < j.lastNotified {
		return
	}
	j.lastNotified = done
	j.progress(done, total)
}

// validatePartial checks a progress payload against the lease's range
// and the job's engine. Caller holds c.mu.
func validatePartial(j *distJob, s *slot, req *ProgressRequest) *apiError {
	r := &req.Range
	if r.Lo != s.lo.String() || r.Hi != s.hi.String() {
		return &apiError{status: 400, code: CodeBadCheckpoint,
			msg: fmt.Sprintf("partial range [%s, %s) does not match lease range [%s, %s)", r.Lo, r.Hi, s.lo, s.hi)}
	}
	if err := count.ValidateShardProgress(j.eng, r); err != nil {
		return &apiError{status: 400, code: CodeBadCheckpoint, msg: err.Error()}
	}
	next, _ := new(big.Int).SetString(r.Next, 10)
	if next.Cmp(s.next) < 0 {
		return &apiError{status: 400, code: CodeBadCheckpoint,
			msg: fmt.Sprintf("partial watermark %s behind accepted watermark %s", next, s.next)}
	}
	if req.Done && next.Cmp(s.hi) != 0 {
		return &apiError{status: 400, code: CodeBadCheckpoint,
			msg: fmt.Sprintf("done at watermark %s, range ends at %s", next, s.hi)}
	}
	return nil
}

// Fail requeues a range its worker cannot sweep. A range that keeps
// failing fails the whole job: a database that will not compile on any
// worker will not compile on the next one either.
func (c *Coordinator) Fail(req FailRequest) (ProgressResponse, *apiError) {
	c.mu.Lock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		return ProgressResponse{}, errUnknownWorker(req.WorkerID)
	}
	w.lastBeat = c.cfg.now()
	ref, ok := c.leases[req.LeaseID]
	if !ok || ref.slot.worker != req.WorkerID {
		c.mu.Unlock()
		return ProgressResponse{}, &apiError{status: 409, code: CodeUnknownLease,
			msg: fmt.Sprintf("lease %s is not live", req.LeaseID)}
	}
	j, s := ref.job, ref.slot
	s.failures++
	c.requeueLocked(req.LeaseID)
	var failed *distJob
	if s.failures >= c.cfg.maxLeaseFails() {
		j.err = fmt.Errorf("dist: range %d failed %d times, last: %s", s.index, s.failures, req.Error)
		failed = j
		c.detachLocked(j)
	}
	c.mu.Unlock()
	if failed != nil {
		failed.finish()
	}
	return ProgressResponse{OK: true}, nil
}

func errUnknownWorker(id string) *apiError {
	return &apiError{status: 404, code: CodeUnknownWorker,
		msg: fmt.Sprintf("worker %s is not registered (register again)", id)}
}

// detachLocked removes a job from the active set and drops its live
// leases; publishes against them will get unknown_lease. The job struct
// stays readable (Checkpoint, Stats) after detach.
func (c *Coordinator) detachLocked(j *distJob) {
	for i, other := range c.jobs {
		if other == j {
			c.jobs = append(c.jobs[:i], c.jobs[i+1:]...)
			break
		}
	}
	for leaseID, ref := range c.leases {
		if ref.job == j {
			delete(c.leases, leaseID)
			if w, ok := c.workers[ref.slot.worker]; ok {
				delete(w.held, leaseID)
			}
		}
	}
	if c.rr >= len(c.jobs) {
		c.rr = 0
	}
}

// finish merges the completed table (or records the failure) and wakes
// Wait. Called outside c.mu; the job is already detached, so its slots
// are quiescent.
func (j *distJob) finish() {
	if j.err == nil {
		j.result, j.err = count.MergeCheckpoint(j.eng, j.checkpoint())
	}
	j.jobsDoneHook()
	close(j.done)
}

// checkpoint renders the lease table as a SweepCheckpoint.
func (j *distJob) checkpoint() *count.SweepCheckpoint {
	cp := &count.SweepCheckpoint{Space: j.size.String(), Completions: j.completions}
	cp.Shards = make([]count.ShardCheckpoint, len(j.slots))
	for i, s := range j.slots {
		cp.Shards[i] = count.ShardCheckpoint{
			Lo:      s.lo.String(),
			Next:    s.next.String(),
			Hi:      s.hi.String(),
			Count:   s.tally,
			Entries: append([]count.CompletionRecord(nil), s.entries...),
		}
	}
	return cp
}

// StartJob compiles the spec, builds (or restores) its lease table, and
// makes it eligible for issuance. A resume checkpoint that does not
// match the engine (different space, wrong mode, malformed or
// non-contiguous shards) is discarded and the table starts fresh —
// mirroring the local Checkpointer's resume contract.
func (c *Coordinator) StartJob(spec JobSpec, resume *count.SweepCheckpoint) (*JobHandle, error) {
	db, err := core.ParseDatabaseString(spec.Database)
	if err != nil {
		return nil, fmt.Errorf("dist: parse database: %w", err)
	}
	q, err := cq.Parse(spec.Query)
	if err != nil {
		return nil, fmt.Errorf("dist: parse query: %w", err)
	}
	completions := spec.Kind == "comp"
	mode := sweep.ModeValuations
	if completions {
		mode = sweep.ModeCompletions
	}
	eng, err := sweep.CompileWith(db, q, mode, sweep.CompileOptions{
		DisableBitsets: spec.DisableBitsets,
		SyntacticOrder: spec.SyntacticOrder,
	})
	if err != nil {
		return nil, fmt.Errorf("dist: compile: %w", err)
	}
	size := eng.Size()
	cp := resume
	if !resumable(eng, cp, size, completions) {
		leases := c.leaseCount(size)
		cp = count.NewSweepCheckpoint(size, leases, completions)
	}
	j := &distJob{
		spec:        spec,
		completions: completions,
		eng:         eng,
		size:        size,
		done:        make(chan struct{}),
		workers:     make(map[string]bool),
	}
	for i := range cp.Shards {
		sc := &cp.Shards[i]
		lo, _ := new(big.Int).SetString(sc.Lo, 10)
		next, _ := new(big.Int).SetString(sc.Next, 10)
		hi, _ := new(big.Int).SetString(sc.Hi, 10)
		s := &slot{
			index:   i,
			lo:      lo,
			next:    next,
			hi:      hi,
			tally:   sc.Count,
			entries: append([]count.CompletionRecord(nil), sc.Entries...),
		}
		if next.Cmp(hi) == 0 {
			s.state = slotDone
		} else {
			j.remaining++
		}
		j.slots = append(j.slots, s)
	}
	c.mu.Lock()
	c.seq++
	j.id = fmt.Sprintf("dj-%d", c.seq)
	c.jobsStarted++
	j.jobsDoneHook = func() {
		c.mu.Lock()
		c.jobsCompleted++
		c.mu.Unlock()
	}
	if j.remaining > 0 {
		c.jobs = append(c.jobs, j)
	}
	c.mu.Unlock()
	if j.remaining == 0 {
		// Everything was already swept (a restart after the last partial
		// landed): merge immediately.
		j.finish()
	}
	return &JobHandle{c: c, j: j}, nil
}

// resumable reports whether a persisted lease table can seed this job:
// the space and mode must match and the shards must form a contiguous
// partition with valid state — the same checks the local restore makes,
// via the same validation the merge uses. Each shard runs through
// count.ValidateShardProgress, so completion records that no longer
// decode against the engine (version skew across a restart) discard the
// checkpoint here, instead of every re-issued lease failing on every
// worker until MaxLeaseFails kills the job.
func resumable(eng *sweep.Engine, cp *count.SweepCheckpoint, size *big.Int, completions bool) bool {
	if cp == nil || len(cp.Shards) == 0 || cp.Space != size.String() || cp.Completions != completions {
		return false
	}
	prev := new(big.Int)
	for i := range cp.Shards {
		s := &cp.Shards[i]
		if count.ValidateShardProgress(eng, s) != nil {
			return false
		}
		lo, _ := new(big.Int).SetString(s.Lo, 10)
		hi, _ := new(big.Int).SetString(s.Hi, 10)
		if lo.Cmp(prev) != 0 {
			return false
		}
		prev = hi
	}
	return prev.Cmp(size) == 0
}

// leaseCount sizes a job's lease table.
func (c *Coordinator) leaseCount(size *big.Int) int {
	target := new(big.Int).Div(size, big.NewInt(c.cfg.leaseValuations()))
	n := c.cfg.minLeases()
	if target.IsInt64() && target.Int64() > int64(n) {
		n = int(target.Int64())
	} else if !target.IsInt64() {
		n = c.cfg.maxLeases()
	}
	if max := c.cfg.maxLeases(); n > max {
		n = max
	}
	return n
}

// WorkerCount reports how many workers are currently registered.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// JobHandle is the submitting side's view of one distributed job.
type JobHandle struct {
	c *Coordinator
	j *distJob
}

// Size is the job's enumerated-space size.
func (h *JobHandle) Size() *big.Int { return new(big.Int).Set(h.j.size) }

// Leases is the size of the job's lease table.
func (h *JobHandle) Leases() int { return len(h.j.slots) }

// Checkpoint snapshots the lease table as a SweepCheckpoint — what the
// job store persists, and what a restarted coordinator (or a local
// resumed sweep) picks the work back up from.
func (h *JobHandle) Checkpoint() *count.SweepCheckpoint {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.j.checkpoint()
}

// JobStats summarizes a distributed job for job records and responses.
type JobStats struct {
	Leases   int   `json:"leases"`
	Done     int   `json:"done_leases"`
	Reissued int64 `json:"reissued_leases"`
	Workers  int   `json:"workers"`
}

// Stats reports the job's lease bookkeeping.
func (h *JobHandle) Stats() JobStats {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return JobStats{
		Leases:   len(h.j.slots),
		Done:     len(h.j.slots) - h.j.remaining,
		Reissued: h.j.reissued,
		Workers:  len(h.j.workers),
	}
}

// Cancel detaches the job: its pending ranges stop issuing, its live
// leases die, and in-flight publishes get unknown_lease. The lease table
// stays readable for a final Checkpoint.
func (h *JobHandle) Cancel() {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if h.j.cancelled {
		return
	}
	h.j.cancelled = true
	h.c.detachLocked(h.j)
}

// Wait blocks until the job completes (returning the exact count) or ctx
// cancels (detaching the job and returning ctx.Err(); the caller
// persists Checkpoint() and resumes later). progress, when non-nil, is
// notified with (completed, total) lease counts — immediately, then on
// every completion.
func (h *JobHandle) Wait(ctx context.Context, progress func(done, total int)) (*big.Int, error) {
	h.c.mu.Lock()
	done, total := len(h.j.slots)-h.j.remaining, len(h.j.slots)
	h.c.mu.Unlock()
	h.j.notifyMu.Lock()
	h.j.progress = progress
	h.j.notifyMu.Unlock()
	h.j.notify(done, total)
	select {
	case <-ctx.Done():
		h.Cancel()
		return nil, ctx.Err()
	case <-h.j.done:
		return h.j.result, h.j.err
	}
}

// WorkerMetrics is one registry entry in the stats block.
type WorkerMetrics struct {
	ID               string  `json:"id"`
	Name             string  `json:"name"`
	Parallel         int     `json:"parallel,omitempty"`
	LeasesHeld       int     `json:"leases_held"`
	LeasesCompleted  int64   `json:"leases_completed"`
	Visited          string  `json:"visited_valuations"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	HeartbeatAge     float64 `json:"heartbeat_age_seconds"`
}

// Metrics is the coordinator's /v1/stats cluster block.
type Metrics struct {
	Workers         []WorkerMetrics `json:"workers"`
	LeasesPending   int             `json:"leases_pending"`
	LeasesLive      int             `json:"leases_live"`
	LeasesCompleted int64           `json:"leases_completed"`
	LeasesReissued  int64           `json:"leases_reissued"`
	JobsActive      int             `json:"jobs_active"`
	JobsStarted     int64           `json:"jobs_started"`
	JobsCompleted   int64           `json:"jobs_completed"`
}

// Metrics snapshots the registry and lease bookkeeping.
func (c *Coordinator) Metrics() Metrics {
	now := c.cfg.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := Metrics{
		LeasesPending:   c.pendingLocked(),
		LeasesLive:      len(c.leases),
		LeasesCompleted: c.leasesCompleted,
		LeasesReissued:  c.leasesReissued,
		JobsActive:      len(c.jobs),
		JobsStarted:     c.jobsStarted,
		JobsCompleted:   c.jobsCompleted,
	}
	for _, w := range c.workers {
		wm := WorkerMetrics{
			ID:              w.id,
			Name:            w.name,
			Parallel:        w.parallel,
			LeasesHeld:      len(w.held),
			LeasesCompleted: w.finished,
			Visited:         w.visited.String(),
			HeartbeatAge:    now.Sub(w.lastBeat).Seconds(),
		}
		if alive := now.Sub(w.joined).Seconds(); alive > 0 && w.visited.IsInt64() {
			wm.ThroughputPerSec = float64(w.visited.Int64()) / alive
		}
		m.Workers = append(m.Workers, wm)
	}
	sort.Slice(m.Workers, func(i, k int) bool { return m.Workers[i].ID < m.Workers[k].ID })
	return m
}
