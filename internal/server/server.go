// Package server implements the incdb counting service: an HTTP/JSON API
// over the incompletedb library that answers classification and
// polynomial-time counting requests synchronously, deduplicates and
// caches results, and supervises potentially exponential brute-force
// sweeps as asynchronous, cancellable jobs.
//
// The service layer mirrors the shape of the paper's dichotomy (Arenas,
// Barceló and Monet, PODS 2020): FP-side requests are cheap and answered
// inline; #P-hard instances either go through the Karp–Luby FPRAS
// (/v1/estimate) or through the async job API (/v1/jobs), which runs the
// sharded sweep of internal/count — each shard driving a cursor of the
// compiled valuation-sweep engine (internal/sweep) — on a worker pool
// with context cancellation and per-shard progress reporting. Guard
// errors surfaced to clients reflect the engine's relevant-null pruning:
// the guarded quantity is the space the sweep would actually enumerate,
// which for #Val with syntactic queries excludes nulls the query cannot
// observe.
//
// The server is a thin HTTP adapter over a Solver session
// (internal/solver): the fingerprint-keyed LRU result cache and the
// single-flight deduplication that used to live here moved into the
// solver, so syntactically different but isomorphic inputs (renamed
// nulls, reordered facts, renamed query variables) share one entry — and
// the same amortization is available to library users without the HTTP
// layer. Each request is answered by preparing the submitted database
// through the shared solver and executing the session call that matches
// the endpoint; a count, certain or possible request whose database text
// the solver has prepared before is looked up in the cache by the hash
// of that text, without parsing it again.
//
// The server also hosts one live mutable session: a database loaded with
// POST /v1/db (or incdb serve -db) stays prepared across requests, and
// the write endpoints mutate it through the solver session's write
// methods — a write empties the session's plan cache, untouched independent
// components are planned and counted from the factor memo, and interleaved count
// traffic (any read request with an empty database field) sees each
// write immediately.
//
// Endpoints:
//
//	GET    /healthz            liveness probe
//	GET    /v1/stats           cache/dedup counters and job tallies
//	POST   /v1/classify        Table 1 classification of an sjfBCQ
//	POST   /v1/count           #Val / #Comp, cached, single-flight
//	POST   /v1/certain         certainty (all completions satisfy q)
//	POST   /v1/possible        possibility (some completion satisfies q)
//	POST   /v1/estimate        Karp–Luby FPRAS for #Val (uncached)
//	POST   /v1/explain         compile and render the plan of a count
//	                           request without executing it
//	POST   /v1/batch           up to 1024 requests in one call, run concurrently
//	POST   /v1/jobs            start an async (brute-force) counting job
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status, progress, result
//	DELETE /v1/jobs/{id}       cancel a running job
//	POST   /v1/db              load (replace) the live mutable database
//	GET    /v1/db              render the live database and its epoch
//	POST   /v1/facts           add facts to the live database
//	DELETE /v1/facts           remove facts from the live database
//	POST   /v1/domain          extend a null's domain (or the uniform one)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/dist"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/jobs"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// Defaults for Config fields left zero.
const (
	// DefaultCacheSize mirrors the solver's: the cache now lives there,
	// the server only forwards its sizing.
	DefaultCacheSize = solver.DefaultCacheSize
	DefaultMaxJobs   = 1024
	// DefaultDistThreshold is the sweep size (2^21 valuations) above which
	// a coordinator-enabled server distributes a brute-force job rather
	// than sweeping it on the local pool.
	DefaultDistThreshold = 1 << 21
	// maxRequestBody bounds request bodies (databases are text; 8 MiB is
	// far beyond any instance the brute-force guard would accept).
	maxRequestBody = 8 << 20
	// maxBatchItems bounds the items of one /v1/batch request. Within the
	// body cap a batch of empty items could otherwise hold millions, each
	// decoded, run and answered before the response is written.
	maxBatchItems = 1024
)

// Config configures a Server.
type Config struct {
	// CacheSize is the number of results the LRU retains; 0 means
	// DefaultCacheSize, negative disables caching.
	CacheSize int

	// MaxValuations is the per-request valuation budget: the hard cap on
	// brute-force sweep size. Requests may lower it but never exceed it.
	// 0 means count.DefaultMaxValuations.
	MaxValuations int64

	// Workers is the worker-pool width for each brute-force sweep; 0
	// means one worker per CPU.
	Workers int

	// MaxJobs caps how many (terminal) jobs the registry retains; 0
	// means DefaultMaxJobs.
	MaxJobs int

	// MaxConcurrentJobs caps how many async jobs sweep at once; excess
	// admissions queue. 0 means jobs.DefaultMaxConcurrent.
	MaxConcurrentJobs int

	// MaxQueuedJobs bounds the admission queue; a submission beyond it is
	// rejected with 429 + Retry-After. 0 means jobs.DefaultMaxQueue.
	MaxQueuedJobs int

	// JobTTL is how long finished jobs are retained before the GC evicts
	// them; 0 means jobs.DefaultTTL.
	JobTTL time.Duration

	// JobPersistInterval is how often running jobs' checkpoints are
	// captured and persisted; 0 means jobs.DefaultPersistInterval.
	JobPersistInterval time.Duration

	// JobStore persists job records across restarts (incdb serve -jobdir
	// passes a jobs.FileStore). Nil keeps jobs in memory only.
	JobStore jobs.Store

	// CheckpointStride is how many valuations each sweep shard visits
	// between checkpoint publications; 0 means
	// count.DefaultCheckpointStride.
	CheckpointStride int64

	// Coordinator enables the distributed-sweep coordinator: the cluster
	// endpoints (/cluster/*) are mounted for incdb worker processes to
	// join, and oversized brute-force jobs are decomposed into index-range
	// leases and fanned out to them (incdb serve -coordinator).
	Coordinator bool

	// DistThreshold is the sweep size at which a brute-force job routes
	// through the coordinator instead of the local worker pool; smaller
	// sweeps (and any sweep while no worker is joined) run locally. 0
	// means DefaultDistThreshold.
	DistThreshold int64

	// LeaseTTL is how long the coordinator waits for a lease holder's
	// heartbeat before re-issuing its range; 0 means dist.DefaultLeaseTTL.
	LeaseTTL time.Duration

	// LeaseValuations is the target valuations per lease (the unit of
	// distributed work and of loss); 0 means dist.DefaultLeaseValuations.
	LeaseValuations int64

	// ClusterToken, when non-empty, is the shared secret every
	// /cluster request must present (incdb serve -cluster-token /
	// incdb worker -token). The cluster endpoints share the serving
	// mux, so leave it empty only when the serve port is confined to a
	// trusted network.
	ClusterToken string

	// Pprof mounts net/http/pprof under /debug/pprof/ so live sweeps can
	// be profiled in place — the sweep shards run under pprof labels
	// (sweep_shard, sweep_mode), so a CPU profile of a busy server
	// attributes samples per shard and per sweep mode. Off by default:
	// profiles expose internals, so only enable on trusted interfaces.
	Pprof bool
}

func (c Config) cacheSize() int {
	if c.CacheSize == 0 {
		return DefaultCacheSize
	}
	return c.CacheSize
}

func (c Config) maxValuations() int64 {
	if c.MaxValuations <= 0 {
		return count.DefaultMaxValuations
	}
	return c.MaxValuations
}

func (c Config) maxJobs() int {
	if c.MaxJobs <= 0 {
		return DefaultMaxJobs
	}
	return c.MaxJobs
}

func (c Config) distThreshold() int64 {
	if c.DistThreshold <= 0 {
		return DefaultDistThreshold
	}
	return c.DistThreshold
}

// Server is the counting service. Create one with New; it is safe for
// concurrent use.
type Server struct {
	cfg Config
	// solver owns the result cache and single-flight deduplication the
	// service used to implement itself; every request is answered through
	// a session prepared on it.
	solver *solver.Solver
	// jobs is the durable job subsystem: admission control, checkpoint
	// persistence and recovery live there (internal/jobs); this server
	// adapts it to the wire API in jobs.go.
	jobs *jobs.Manager
	// coord is the distributed-sweep coordinator, non-nil when
	// Config.Coordinator is set: worker processes join over /cluster/*
	// and oversized brute-force jobs fan out to them as range leases
	// (dist.go in this package adapts jobs onto it).
	coord *dist.Coordinator
	mux   *http.ServeMux

	// live is the mutable session the write endpoints operate on and
	// empty-database read requests route to. liveMu guards the pointer
	// and serializes writes (and textual rendering) against each other;
	// count traffic synchronizes through the session's own lock.
	liveMu sync.Mutex
	live   *solver.PreparedDB

	// root is the lifetime context of background work (sync computations
	// and jobs); Close cancels it.
	root      context.Context
	closeRoot context.CancelFunc
}

// New returns a Server ready to serve. Call Close when done to stop any
// jobs still running.
func New(cfg Config) *Server {
	s := &Server{
		cfg: cfg,
		solver: solver.NewSolverConfig(solver.Config{
			Workers:       cfg.Workers,
			MaxValuations: cfg.MaxValuations,
			CacheSize:     cfg.cacheSize(),
		}),
	}
	s.root, s.closeRoot = context.WithCancel(context.Background())
	s.jobs = jobs.New(jobs.Config{
		MaxConcurrent:   cfg.MaxConcurrentJobs,
		MaxQueue:        cfg.MaxQueuedJobs,
		MaxJobs:         cfg.maxJobs(),
		TTL:             cfg.JobTTL,
		Store:           cfg.JobStore,
		PersistInterval: cfg.JobPersistInterval,
		BaseContext:     s.root,
	})
	s.mux = http.NewServeMux()
	if cfg.Coordinator {
		s.coord = dist.NewCoordinator(dist.Config{
			LeaseTTL:        cfg.LeaseTTL,
			LeaseValuations: cfg.LeaseValuations,
			Token:           cfg.ClusterToken,
		})
		s.coord.RegisterHandlers(s.mux)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/classify", s.handleOp(OpClassify))
	s.mux.HandleFunc("POST /v1/count", s.handleOp(OpCount))
	s.mux.HandleFunc("POST /v1/certain", s.handleOp(OpCertain))
	s.mux.HandleFunc("POST /v1/possible", s.handleOp(OpPossible))
	s.mux.HandleFunc("POST /v1/estimate", s.handleOp(OpEstimate))
	s.mux.HandleFunc("POST /v1/explain", s.handleOp(OpExplain))
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("POST /v1/db", s.handleDBLoad)
	s.mux.HandleFunc("GET /v1/db", s.handleDBGet)
	s.mux.HandleFunc("POST /v1/facts", s.handleFactsAdd)
	s.mux.HandleFunc("DELETE /v1/facts", s.handleFactsRemove)
	s.mux.HandleFunc("POST /v1/domain", s.handleDomain)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close abruptly cancels all running jobs and in-flight background
// computations. For an orderly stop that checkpoints running jobs first,
// use Shutdown (Serve does on context cancellation).
func (s *Server) Close() {
	s.closeRoot()
	s.jobs.Close()
	if s.coord != nil {
		s.coord.Close()
	}
}

// Coordinator returns the distributed-sweep coordinator, or nil when the
// server was not configured with one.
func (s *Server) Coordinator() *dist.Coordinator { return s.coord }

// Shutdown drains the server gracefully: admission stops, running jobs
// are cancelled at their next checkpoint boundary and their final
// checkpoints persisted (so a restart over the same store resumes them),
// then all background work is torn down. ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) {
	s.jobs.Drain(ctx)
	s.Close()
}

// A client must finish sending its request headers within
// readHeaderTimeout, and an idle keep-alive connection is closed after
// idleTimeout, so slow or abandoned clients cannot hold connections open
// without bound. Request bodies and responses are not bounded here:
// distributed-job and long-poll traffic legitimately takes long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// httpServer builds the http.Server that Serve runs.
func (s *Server) httpServer() *http.Server {
	return &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// Serve serves the API on ln until ctx is cancelled, then shuts down
// gracefully: in-flight HTTP requests finish, running jobs checkpoint,
// and only then is background work cancelled.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := s.httpServer()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
		s.Shutdown(shutdownCtx)
		return nil
	case err := <-errc:
		s.Close()
		return err
	}
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Solver returns the solver session layer the service answers through;
// embedding processes can share it with their own prepared databases.
func (s *Server) Solver() *solver.Solver { return s.solver }

// Stats returns a snapshot of the service counters (the cache and
// deduplication counters come from the underlying solver).
func (s *Server) Stats() Stats {
	m := s.solver.Metrics()
	st := Stats{
		CacheEntries:     m.CacheEntries,
		CacheHits:        m.CacheHits,
		CacheMisses:      m.CacheMisses,
		Computations:     m.Computations,
		FlightShared:     m.FlightShared,
		Mutations:        m.Mutations,
		PlansInvalidated: m.PlansInvalidated,
		FactorsReused:    m.FactorsReused,
		Jobs:             s.jobStatusCounts(),
	}
	jm := s.jobs.Metrics()
	st.JobQueue = &JobQueueStats{
		Running:              jm.Running,
		Queued:               jm.Queued,
		Retained:             jm.Retained,
		Submitted:            jm.Submitted,
		Rejected:             jm.Rejected,
		Resumed:              jm.Resumed,
		Completed:            jm.Completed,
		Evicted:              jm.Evicted,
		CheckpointAgeSeconds: jm.CheckpointAgeSeconds,
	}
	if s.coord != nil {
		cm := s.coord.Metrics()
		st.Cluster = &cm
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.live != nil {
		st.Live = s.databaseStateLocked(false)
	}
	return st
}

// LoadDatabase prepares db through the server's solver and installs it
// as the live mutable session, replacing any previous one. It is the
// programmatic equivalent of POST /v1/db (incdb serve -db preloads
// through it).
func (s *Server) LoadDatabase(db *core.Database) error {
	pdb, err := s.solver.Prepare(db)
	if err != nil {
		return err
	}
	s.liveMu.Lock()
	s.live = pdb
	s.liveMu.Unlock()
	return nil
}

// Live returns the live mutable session, or nil if no database has been
// loaded.
func (s *Server) Live() *solver.PreparedDB {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return s.live
}

// databaseStateLocked snapshots the live session (liveMu held, live
// non-nil). withText includes the textual database form, which stats
// responses elide.
func (s *Server) databaseStateLocked(withText bool) *DatabaseState {
	db := s.live.Database()
	st := &DatabaseState{
		Epoch:   s.live.Epoch(),
		Facts:   len(db.Facts()),
		Nulls:   len(db.Nulls()),
		Uniform: db.Uniform(),
		Codd:    db.IsCodd(),
	}
	if withText {
		st.Database = db.String()
	}
	return st
}

// Execute runs one request synchronously and returns its response; errors
// are returned as a Response with Error set. It is the programmatic
// equivalent of the single-operation endpoints and what /v1/batch runs
// per item.
func (s *Server) Execute(req Request) *Response {
	resp, err := s.execute(req)
	if err != nil {
		return &Response{Op: req.Op, Query: req.Query, Kind: req.Kind, Error: err.Error()}
	}
	return resp
}

// httpError wraps an error with the HTTP status it should map to.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(format string, args ...interface{}) error {
	return &httpError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

func statusOf(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	// Cancellation is a server-side event (shutdown), not the client's
	// fault: signal it as retryable.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	// Compute-time failures (e.g. the brute-force guard) are the
	// request's fault but syntactically valid: 422.
	return http.StatusUnprocessableEntity
}

func (s *Server) execute(req Request) (*Response, error) {
	start := time.Now()
	var resp *Response
	var err error
	switch req.Op {
	case OpClassify:
		resp, err = s.execClassify(req)
	case OpCount, OpCertain, OpPossible:
		resp, err = s.execCached(req)
	case OpEstimate:
		resp, err = s.execEstimate(req)
	case OpExplain:
		resp, err = s.execExplain(req)
	default:
		return nil, badRequest("unknown op %q", req.Op)
	}
	if err != nil {
		return nil, err
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	return resp, nil
}

func (s *Server) execClassify(req Request) (*Response, error) {
	q, err := cq.ParseBCQ(req.Query)
	if err != nil {
		return nil, badRequest("query: %v", err)
	}
	results, err := classify.ClassifyAll(q)
	if err != nil {
		return nil, badRequest("classify: %v", err)
	}
	out := make([]ClassifyResult, len(results))
	for i, r := range results {
		out[i] = ClassifyResult{
			Variant:    r.Variant.String(),
			Complexity: r.Complexity.String(),
			Approx:     r.Approx.String(),
			Reference:  r.Reference,
		}
		if r.HardPattern != nil {
			out[i].HardPattern = r.HardPattern.String()
		}
	}
	return &Response{Op: OpClassify, Query: q.String(), Classification: out}, nil
}

// sessionFor resolves the request's session and query: an inline
// database is parsed and prepared (deduplicated by the solver's
// canonical forms), an empty one routes to the live mutable session.
func (s *Server) sessionFor(req Request) (*solver.PreparedDB, cq.Query, error) {
	q, err := requestQuery(req)
	if err != nil {
		return nil, nil, err
	}
	pdb, err := s.session(req.Database)
	if err != nil {
		return nil, nil, err
	}
	return pdb, q, nil
}

// requestQuery parses the request's query.
func requestQuery(req Request) (cq.Query, error) {
	if req.Query == "" {
		return nil, badRequest("query is required")
	}
	q, err := cq.Parse(req.Query)
	if err != nil {
		return nil, badRequest("query: %v", err)
	}
	return q, nil
}

// session returns the live mutable session for an empty database text,
// and otherwise parses and prepares the text through the solver, which
// enters it in the text memo.
func (s *Server) session(text string) (*solver.PreparedDB, error) {
	if text == "" {
		pdb := s.Live()
		if pdb == nil {
			return nil, badRequest("database is required (no live database loaded; POST /v1/db first)")
		}
		return pdb, nil
	}
	pdb, err := s.solver.PrepareText(text)
	var pe *solver.ParseError
	if errors.As(err, &pe) {
		return nil, badRequest("database: %v", pe.Err)
	}
	return pdb, err
}

// requestBudget returns the valuation budget a request runs under, and
// whether its max_valuations tightened the server's. A request may lower
// the budget but never raise it above the server's (the sweep runs on
// the server's root context and would outlive a disconnecting client).
func (s *Server) requestBudget(req Request) (budget int64, tightened bool) {
	budget = s.cfg.maxValuations()
	if req.MaxValuations > 0 && req.MaxValuations < budget {
		return req.MaxValuations, true
	}
	return budget, false
}

// requestOptions builds the per-call option overrides for one request:
// the valuation budget is set only when the request tightens it —
// otherwise it inherits the solver's (= the server's) configuration,
// which keeps default-budget requests on the solver's cached path.
func (s *Server) requestOptions(req Request, progress func(done, total int)) *count.Options {
	o := &count.Options{Progress: progress}
	if budget, tightened := s.requestBudget(req); tightened {
		o.MaxValuations = budget
	}
	return o
}

// fingerprintKind maps a (op, kind) pair to its cache-key kind.
func fingerprintKind(req Request) (fingerprint.Kind, string, error) {
	switch req.Op {
	case OpCertain:
		return fingerprint.KindCertain, "", nil
	case OpPossible:
		return fingerprint.KindPossible, "", nil
	case OpCount:
		switch req.Kind {
		case "", KindVal:
			return fingerprint.KindVal, KindVal, nil
		case KindComp:
			return fingerprint.KindComp, KindComp, nil
		default:
			return "", "", badRequest("unknown kind %q (want %q or %q)", req.Kind, KindVal, KindComp)
		}
	}
	return "", "", badRequest("op %q is not cacheable", req.Op)
}

// execCached answers count/certain/possible requests through a solver
// session: the warm entry of a default request answers immediately
// regardless of the request's budget overrides (a budget bounds
// computation, not lookup); everything else computes through the
// solver's cache and single-flight group, under the request's own
// planning options. An inline database whose text the solver has
// prepared before is looked up by the hash of its text, without being
// parsed or prepared again. Computations run under the server's
// root context (not the request's): a shared result must not die with
// whichever of its waiters disconnects first.
func (s *Server) execCached(req Request) (*Response, error) {
	q, err := requestQuery(req)
	if err != nil {
		return nil, err
	}
	// Only a text that parsed and prepared enters the memo, so a memo hit
	// skips no error but the kind's, which is checked first. Otherwise a
	// database error is reported before a kind error.
	fpKind, kind, kindErr := fingerprintKind(req)
	if req.Database != "" && kindErr == nil {
		if res, ok := s.solver.CachedText(req.Database, q, fpKind); ok {
			return s.resultResponse(req.Op, q, kind, res), nil
		}
	}
	pdb, err := s.session(req.Database)
	if err != nil {
		return nil, err
	}
	if kindErr != nil {
		return nil, kindErr
	}
	if res, ok := pdb.Cached(q, fpKind); ok {
		return s.resultResponse(req.Op, q, kind, res), nil
	}
	opts := s.requestOptions(req, nil)
	var res *solver.Result
	switch req.Op {
	case OpCount:
		res, err = pdb.CountWith(s.root, q, countingKind(kind), opts)
	case OpCertain:
		res, err = pdb.CertainWith(s.root, q, opts)
	case OpPossible:
		res, err = pdb.PossibleWith(s.root, q, opts)
	default:
		return nil, badRequest("unknown op %q", req.Op)
	}
	if err != nil {
		return nil, err
	}
	return s.resultResponse(req.Op, q, kind, res), nil
}

// countingKind maps the wire kind to the classifier's.
func countingKind(kind string) classify.CountingKind {
	if kind == KindComp {
		return classify.Completions
	}
	return classify.Valuations
}

// resultResponse maps a solver Result onto the wire shape of the
// operation that produced it.
func (s *Server) resultResponse(op string, q cq.Query, kind string, res *solver.Result) *Response {
	resp := &Response{
		Op:          op,
		Query:       q.String(),
		Fingerprint: res.Fingerprint,
		Cached:      res.Stats.CacheHit,
	}
	switch op {
	case OpCount:
		resp.Kind = kind
		resp.Count = res.Count.String()
		resp.Method = string(res.Method)
		resp.Kernel = res.Stats.Kernel
		if st := res.Stats; st.PhaseStep != 0 || st.PhaseMatch != 0 || st.PhaseDedup != 0 {
			resp.Phases = &PhaseDetail{
				StepMS:  float64(st.PhaseStep.Microseconds()) / 1e3,
				MatchMS: float64(st.PhaseMatch.Microseconds()) / 1e3,
				DedupMS: float64(st.PhaseDedup.Microseconds()) / 1e3,
			}
		}
		if res.Plan != nil {
			resp.Plan = res.Plan.JSON()
		}
	case OpCertain, OpPossible:
		resp.Holds = res.Holds
	}
	return resp
}

// execExplain compiles and renders the plan of a count request without
// executing it: the EXPLAIN of the counting service. The response carries
// the fingerprint of (database, query, kind), so isomorphic inputs can be
// recognized as sharing one plan shape.
func (s *Server) execExplain(req Request) (*Response, error) {
	pdb, q, err := s.sessionFor(req)
	if err != nil {
		return nil, err
	}
	fpKind, kind, err := fingerprintKind(Request{Op: OpCount, Kind: req.Kind})
	if err != nil {
		return nil, err
	}
	p, err := pdb.ExplainWith(q, countingKind(kind), s.requestOptions(req, nil))
	if err != nil {
		return nil, badRequest("explain: %v", err)
	}
	return &Response{
		Op:          OpExplain,
		Query:       q.String(),
		Kind:        kind,
		Method:      p.Method(),
		Plan:        p.JSON(),
		Fingerprint: pdb.Fingerprint(q, fpKind),
	}, nil
}

// execEstimate runs the Karp–Luby FPRAS. Estimates are randomized, so
// they bypass the cache and the single-flight group; the sampling
// diagnostics the estimator produces ride along in the estimate block.
func (s *Server) execEstimate(req Request) (*Response, error) {
	pdb, q, err := s.sessionFor(req)
	if err != nil {
		return nil, err
	}
	eps, delta := req.Eps, req.Delta
	if eps == 0 {
		eps = 0.05
	}
	if delta == 0 {
		delta = 0.05
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	res, err := pdb.Estimate(s.root, q, eps, delta, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, err: err}
	}
	resp := &Response{
		Op:     OpEstimate,
		Query:  q.String(),
		Kind:   KindVal,
		Count:  res.Estimate.String(),
		Method: fmt.Sprintf("approx/karp-luby(eps=%g, delta=%g, samples=%d)", eps, delta, res.Samples),
		Estimate: &EstimateDetail{
			Eps:         eps,
			Delta:       delta,
			Seed:        seed,
			Samples:     res.Samples,
			Cylinders:   res.Cylinders,
			TotalWeight: res.TotalWeight.String(),
		},
	}
	if res.Plan != nil {
		resp.Plan = res.Plan.JSON()
	}
	return resp, nil
}

// ---- live mutable session ----

// handleDBLoad replaces the live database: the body is a Request whose
// Database field holds the textual form (the query field is unused).
func (s *Server) handleDBLoad(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Database == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "database is required"})
		return
	}
	db, err := core.ParseDatabaseString(req.Database)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "database: " + err.Error()})
		return
	}
	if err := s.LoadDatabase(db); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error()})
		return
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	writeJSON(w, http.StatusOK, s.databaseStateLocked(true))
}

func (s *Server) handleDBGet(w http.ResponseWriter, r *http.Request) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.live == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no live database loaded; POST /v1/db first"})
		return
	}
	writeJSON(w, http.StatusOK, s.databaseStateLocked(true))
}

// withLive runs fn on the live session under liveMu, mapping the common
// error shapes; fn returns the number of effective mutations.
func (s *Server) withLive(w http.ResponseWriter, r *http.Request, fn func(pdb *solver.PreparedDB, req *MutationRequest) (int, error)) {
	var req MutationRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	if s.live == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no live database loaded; POST /v1/db first"})
		return
	}
	applied, err := fn(s.live, &req)
	if err != nil {
		writeJSON(w, statusOf(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, MutationResponse{
		Applied: applied,
		Epoch:   s.live.Epoch(),
		Facts:   len(s.live.Database().Facts()),
	})
}

// parseFacts parses every fact up front so a syntax error in the k-th
// fact leaves the database untouched.
func parseFacts(texts []string) ([]core.Fact, error) {
	if len(texts) == 0 {
		return nil, badRequest("facts is empty")
	}
	facts := make([]core.Fact, len(texts))
	for i, t := range texts {
		f, err := core.ParseFact(t)
		if err != nil {
			return nil, badRequest("facts[%d]: %v", i, err)
		}
		facts[i] = f
	}
	return facts, nil
}

// checkFacts rejects, before any fact is applied, every fact AddFact
// would refuse: a relation used with an arity other than the one the
// database or an earlier fact of the request gives it, or a null without
// a domain on a non-uniform database. With parseFacts it makes an add
// all-or-nothing.
func checkFacts(db *core.Database, facts []core.Fact) error {
	arity := make(map[string]int)
	for i, f := range facts {
		want, seen := arity[f.Rel]
		if !seen {
			want = db.Arity(f.Rel)
		}
		if want != 0 && want != len(f.Args) {
			return badRequest("facts[%d]: relation %s used with arities %d and %d", i, f.Rel, want, len(f.Args))
		}
		arity[f.Rel] = len(f.Args)
		if db.Uniform() {
			continue
		}
		for _, v := range f.Args {
			if v.IsNull() && db.Domain(v.NullID()) == nil {
				return badRequest("facts[%d]: null %s has no domain; extend it with POST /v1/domain first", i, v.NullID())
			}
		}
	}
	return nil
}

func (s *Server) handleFactsAdd(w http.ResponseWriter, r *http.Request) {
	s.withLive(w, r, func(pdb *solver.PreparedDB, req *MutationRequest) (int, error) {
		facts, err := parseFacts(req.Facts)
		if err != nil {
			return 0, err
		}
		if err := checkFacts(pdb.Database(), facts); err != nil {
			return 0, err
		}
		before := pdb.Epoch()
		for i, f := range facts {
			if err := pdb.AddFact(f.Rel, f.Args...); err != nil {
				return 0, badRequest("facts[%d]: %v", i, err)
			}
		}
		// AddFact has set semantics: only effective adds advance the epoch.
		return int(pdb.Epoch() - before), nil
	})
}

func (s *Server) handleFactsRemove(w http.ResponseWriter, r *http.Request) {
	s.withLive(w, r, func(pdb *solver.PreparedDB, req *MutationRequest) (int, error) {
		facts, err := parseFacts(req.Facts)
		if err != nil {
			return 0, err
		}
		applied := 0
		for _, f := range facts {
			if pdb.RemoveFact(f.Rel, f.Args...) {
				applied++
			}
		}
		return applied, nil
	})
}

func (s *Server) handleDomain(w http.ResponseWriter, r *http.Request) {
	s.withLive(w, r, func(pdb *solver.PreparedDB, req *MutationRequest) (int, error) {
		if len(req.Values) == 0 {
			return 0, badRequest("values is empty")
		}
		before := pdb.Epoch()
		if req.Null == "" {
			if !pdb.Database().Uniform() {
				return 0, badRequest("null is required on a non-uniform database")
			}
			if err := pdb.ExtendUniformDomain(req.Values...); err != nil {
				return 0, badRequest("domain: %v", err)
			}
		} else {
			v, err := core.ParseValue(req.Null)
			if err != nil || !v.IsNull() {
				return 0, badRequest("null: %q is not a null (want \"?N\")", req.Null)
			}
			if err := pdb.ExtendDomain(v.NullID(), req.Values...); err != nil {
				return 0, badRequest("domain: %v", err)
			}
		}
		if pdb.Epoch() > before {
			return 1, nil
		}
		return 0, nil
	})
}

// ---- HTTP plumbing ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleOp serves the single-operation endpoints: the request's Op is
// forced to the endpoint's operation.
func (s *Server) handleOp(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if !decodeJSON(w, r, &req) {
			return
		}
		req.Op = op
		resp, err := s.execute(req)
		if err != nil {
			writeJSON(w, statusOf(err), errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	reqs, err := decodeBatch(dec)
	switch {
	case errors.Is(err, errBatchTooLarge):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid JSON: " + err.Error()})
		return
	case len(reqs) == 0:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "batch: requests is empty"})
		return
	}
	responses := make([]*Response, len(reqs))
	// Items run concurrently; identical items collapse in the
	// single-flight group, so a batch of isomorphic requests costs one
	// computation. The semaphore is taken before an item's goroutine
	// starts, so a huge batch holds at most NumCPU item goroutines and
	// concurrent sweeps (each sweep already uses the full worker pool).
	sem := make(chan struct{}, max(1, runtime.NumCPU()))
	var wg sync.WaitGroup
	for i, req := range reqs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			defer func() { <-sem }()
			if req.Op == "" {
				req.Op = OpCount
			}
			responses[i] = s.executeItem(req)
		}(i, req)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Responses: responses})
}

// executeBatchItem runs one batch item; tests replace it to make an item
// panic.
var executeBatchItem = (*Server).Execute

// executeItem runs one batch item behind a panic boundary. net/http
// recovers only the handler's own goroutine, so a panic in an item
// goroutine would end the process: instead it answers that item with an
// error naming the panic, and the other items complete.
func (s *Server) executeItem(req Request) (resp *Response) {
	defer func() {
		if v := recover(); v != nil {
			resp = &Response{Op: req.Op, Query: req.Query, Kind: req.Kind, Error: fmt.Sprintf("batch: item panicked: %v", v)}
		}
	}()
	return executeBatchItem(s, req)
}

// errBatchTooLarge refuses a batch of more than maxBatchItems items.
var errBatchTooLarge = fmt.Errorf("batch: more than %d requests", maxBatchItems)

// decodeBatch reads a BatchRequest one item at a time, as strictly as
// decodeJSON reads a whole body (unknown fields are refused at either
// level), and stops with errBatchTooLarge as soon as the batch starts
// item maxBatchItems+1, before any item has run.
func decodeBatch(dec *json.Decoder) ([]Request, error) {
	if open, err := openValue(dec, '{'); !open {
		return nil, err
	}
	var reqs []Request
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		// encoding/json matches field names case-insensitively, and the
		// last of duplicate fields wins.
		if key, _ := tok.(string); !strings.EqualFold(key, "requests") {
			return nil, fmt.Errorf("json: unknown field %q", key)
		}
		reqs = nil
		open, err := openValue(dec, '[')
		if err != nil {
			return nil, err
		}
		for open && dec.More() {
			if len(reqs) == maxBatchItems {
				return nil, errBatchTooLarge
			}
			var req Request
			if err := dec.Decode(&req); err != nil {
				return nil, err
			}
			reqs = append(reqs, req)
		}
		if open {
			if _, err := dec.Token(); err != nil { // ]
				return nil, err
			}
		}
	}
	_, err := dec.Token() // }
	return reqs, err
}

// openValue reads the token that opens the next value, which must be an
// object or array opened by want, or null, for which it reports false.
func openValue(dec *json.Decoder, want json.Delim) (bool, error) {
	tok, err := dec.Token()
	switch {
	case err != nil || tok == nil:
		return false, err
	case tok != want:
		return false, fmt.Errorf("json: unexpected %v, want %v or null", tok, want)
	}
	return true, nil
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeJSON(w, r, &req) {
		return
	}
	job, err := s.StartJob(req)
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			// Overload is backpressure, not failure: tell the client when
			// to come back instead of letting submissions pile up.
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		case errors.Is(err, jobs.ErrDraining):
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		default:
			writeJSON(w, statusOf(err), errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	recs := s.jobs.List()
	out := make([]*Job, len(recs))
	for i, rec := range recs {
		out[i] = jobFromRecord(rec)
	}
	writeJSON(w, http.StatusOK, JobList{Jobs: out})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, jobFromRecord(j.Snapshot()))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	if _, live := s.jobs.Cancel(j.ID()); !live {
		// The job had already reached a terminal status; there is
		// nothing to cancel and its status will not change.
		writeJSON(w, http.StatusConflict, jobFromRecord(j.Snapshot()))
		return
	}
	writeJSON(w, http.StatusOK, jobFromRecord(j.Snapshot()))
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid JSON: " + err.Error()})
		return false
	}
	return true
}

// writeJSON writes v as compact JSON: responses are read by programs,
// and the incdb CLI re-indents what it prints.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
