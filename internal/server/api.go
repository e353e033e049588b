package server

// The JSON wire types of the counting service. They are also used by the
// -json mode of the incdb command-line tool, so scripted pipelines see one
// schema whether they shell out or speak HTTP.

import (
	"github.com/incompletedb/incompletedb/internal/dist"
	"github.com/incompletedb/incompletedb/internal/plan"
)

// Operation names accepted in Request.Op (and implied by the dedicated
// endpoints).
const (
	OpCount    = "count"
	OpEstimate = "estimate"
	OpClassify = "classify"
	OpCertain  = "certain"
	OpPossible = "possible"
	OpExplain  = "explain"
)

// Kinds of counts for OpCount.
const (
	KindVal  = "val"
	KindComp = "comp"
)

// Request is one unit of work: a database (textual format of
// core.ParseDatabase), a query (syntax of cq.Parse), and parameters. On
// the dedicated endpoints (/v1/count, /v1/estimate, …) Op may be omitted;
// on /v1/batch and /v1/jobs it selects the operation (jobs support only
// OpCount). An empty Database routes the request to the live mutable
// session (loaded with POST /v1/db or incdb serve -db) instead of
// parsing an inline database; such a request fails if no live database
// has been loaded. Requests are decoded strictly: an unknown field is a
// 400, and so are the engine escape hatches, which are library-only
// count.Options fields.
type Request struct {
	Op       string `json:"op,omitempty"`
	Database string `json:"database,omitempty"`
	Query    string `json:"query,omitempty"`

	// Kind selects what OpCount counts: "val" (valuations) or "comp"
	// (completions). Default "val".
	Kind string `json:"kind,omitempty"`

	// MaxValuations lowers the brute-force guard below the server's
	// per-request budget; it can never raise it above the server's cap.
	MaxValuations int64 `json:"max_valuations,omitempty"`

	// MaxCylinders lowers the planner's cap on the cylinder
	// inclusion–exclusion route below the server's (default 18), or
	// disables the route with a negative value; like MaxValuations it
	// can never raise the cap above the server's.
	MaxCylinders int `json:"max_cylinders,omitempty"`

	// Karp–Luby parameters for OpEstimate.
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	Seed  int64   `json:"seed,omitempty"`

	// ForceBrute makes a job bypass the dispatcher's fast paths and run
	// the sharded brute-force sweep, the workload the async job API
	// exists for. Ignored outside /v1/jobs.
	ForceBrute bool `json:"force_brute,omitempty"`
}

// Response is the outcome of one Request. Which fields are set depends on
// the operation: Count/Method for counts and estimates, Holds for
// certain/possible, Classification for classify. In batch responses a
// failed item carries Error and its other fields are empty.
type Response struct {
	Op    string `json:"op"`
	Query string `json:"query,omitempty"`
	Kind  string `json:"kind,omitempty"`

	// Count is the exact count (or the estimate) as a decimal string, so
	// arbitrarily large values survive JSON.
	Count string `json:"count,omitempty"`

	// Holds is the verdict of certain/possible.
	Holds *bool `json:"holds,omitempty"`

	// Method names the algorithm that produced the result. For rewrite
	// plans it is the plan's compact operator signature, e.g.
	// "complement(exact/theorem-3.9)".
	Method string `json:"method,omitempty"`

	// Kernel is "uint64", the width of every sweep's shard tallies, when
	// the count's plan swept, and empty otherwise (solver.Stats.Kernel).
	// It stays on the wire for the clients and the benchmark harness that
	// read it. Count responses only.
	Kernel string `json:"kernel,omitempty"`

	// Plan is the compiled query plan behind the result: the operator
	// tree, per-node decision records (each algorithm tried, the paper
	// theorem, and the precondition that failed), costs, and the rendered
	// text. Count, estimate and explain responses carry it.
	Plan *plan.PlanJSON `json:"plan,omitempty"`

	// Estimate carries the sampling diagnostics of an estimate response
	// (previously discarded): the guarantee parameters, samples drawn,
	// cylinder count and total cylinder weight.
	Estimate *EstimateDetail `json:"estimate,omitempty"`

	// Classification is the Table 1 outcome of classify.
	Classification []ClassifyResult `json:"classification,omitempty"`

	// Fingerprint is the canonical cache key of (database, query, kind);
	// isomorphic inputs share it.
	Fingerprint string `json:"fingerprint,omitempty"`

	// Cached reports that the result was served from the result cache
	// rather than recomputed. A request whose MaxValuations/MaxCylinders
	// tighten the server's limits is still answered from the warm entry
	// of a default request (a budget bounds computation, not lookup): the
	// count is exact under any planning options, but such a response's
	// Plan and Method describe the route the default computation took.
	Cached bool `json:"cached,omitempty"`

	// Phases splits the brute-force sweep time behind a count response
	// into its phases; absent when the plan swept nothing (or on cache
	// hits of such plans).
	Phases *PhaseDetail `json:"phases,omitempty"`

	// DurationMS is the server-side time spent producing this response
	// (near zero for cache hits).
	DurationMS float64 `json:"duration_ms"`

	// Error is set on per-item failures in batch responses.
	Error string `json:"error,omitempty"`
}

// clone returns a copy of r so cached responses can be annotated
// per-request without mutating the cache's entry.
func (r *Response) clone() *Response {
	c := *r
	if r.Classification != nil {
		c.Classification = append([]ClassifyResult(nil), r.Classification...)
	}
	if r.Holds != nil {
		h := *r.Holds
		c.Holds = &h
	}
	if r.Estimate != nil {
		e := *r.Estimate
		c.Estimate = &e
	}
	return &c
}

// EstimateDetail is the sampling-diagnostics block of an estimate
// response: everything the Karp–Luby estimator knows beyond the point
// estimate.
// PhaseDetail is the sampled per-phase time split of the brute-force
// sweeps behind a count: advancing cursors (step), evaluating the query
// (match) and deduplicating completions (dedup), in milliseconds of
// total worker time — concurrent shards add up, so the sum can exceed
// duration_ms.
type PhaseDetail struct {
	StepMS  float64 `json:"step_ms"`
	MatchMS float64 `json:"match_ms"`
	DedupMS float64 `json:"dedup_ms"`
}

type EstimateDetail struct {
	// Eps and Delta are the guarantee parameters the estimator ran with:
	// Pr(|estimate − #Val| ≤ ε·#Val) ≥ 1 − δ.
	Eps   float64 `json:"eps"`
	Delta float64 `json:"delta"`
	// Seed is the RNG seed the estimate was drawn with (estimates are
	// deterministic given the seed).
	Seed int64 `json:"seed"`
	// Samples is the number of importance samples drawn.
	Samples int `json:"samples"`
	// Cylinders is the number of match cylinders of the union.
	Cylinders int `json:"cylinders"`
	// TotalWeight is Σ_j |C_j|, the importance-sampling normalizer, as a
	// decimal string.
	TotalWeight string `json:"total_weight"`
}

// ClassifyResult is one row of a classification: the complexity of one of
// the eight problem variants of Table 1 for the query.
type ClassifyResult struct {
	Variant     string `json:"variant"`
	Complexity  string `json:"complexity"`
	Approx      string `json:"approx"`
	HardPattern string `json:"hard_pattern,omitempty"`
	Reference   string `json:"reference"`
}

// BatchRequest carries many independent requests executed concurrently.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchResponse returns one Response per request, in request order.
type BatchResponse struct {
	Responses []*Response `json:"responses"`
}

// Job statuses. A job is terminal once its status is JobDone, JobFailed
// or JobCancelled. JobQueued marks a job admitted under the concurrency
// cap but still waiting for a slot.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Job is the public state of an asynchronous counting job.
type Job struct {
	ID     string `json:"id"`
	Status string `json:"status"`

	// Progress is the completed fraction of the valuation-space sweep, in
	// [0, 1]: ShardsDone/ShardsTotal while running, 1 on completion.
	Progress    float64 `json:"progress"`
	ShardsDone  int     `json:"shards_done"`
	ShardsTotal int     `json:"shards_total"`

	// CancelRequested reports that DELETE was received; the job turns
	// JobCancelled once the worker pool has actually stopped.
	CancelRequested bool `json:"cancel_requested,omitempty"`

	// Resumed marks a job recovered from the job directory after a
	// restart: its sweep continued from the last persisted checkpoint
	// rather than starting over.
	Resumed bool `json:"resumed,omitempty"`

	// Request echoes the submitted request with Database elided (it can
	// be megabytes and the client already has it); DatabaseBytes records
	// its size.
	Request       Request `json:"request"`
	DatabaseBytes int     `json:"database_bytes,omitempty"`

	// Cluster describes how the distributed path ran (or is running) this
	// job: lease counts, re-issues, and the workers that contributed.
	// Absent for jobs swept locally.
	Cluster *ClusterJobDetail `json:"cluster,omitempty"`

	Result    *Response `json:"result,omitempty"`
	Error     string    `json:"error,omitempty"`
	CreatedAt string    `json:"created_at"`
	// CheckpointAt is when the job's sweep checkpoint was last persisted
	// (running checkpointed jobs only).
	CheckpointAt string `json:"checkpoint_at,omitempty"`
	FinishedAt   string `json:"finished_at,omitempty"`
}

// JobList is the response of GET /v1/jobs.
type JobList struct {
	Jobs []*Job `json:"jobs"`
}

// MutationRequest is the body of the live-session write endpoints:
// POST /v1/facts (add), DELETE /v1/facts (remove) and POST /v1/domain
// (extend a null's domain, or the uniform domain).
type MutationRequest struct {
	// Facts are textual facts ("R(a, ?1)") for the facts endpoints. All
	// facts are parsed before any is applied, so a syntax error mutates
	// nothing.
	Facts []string `json:"facts,omitempty"`

	// Null names the null ("?1") whose domain /v1/domain extends. Empty
	// on a uniform database, where Values extend the shared domain.
	Null string `json:"null,omitempty"`

	// Values are the constants /v1/domain adds to the domain.
	Values []string `json:"values,omitempty"`
}

// MutationResponse reports the outcome of one live-session write.
type MutationResponse struct {
	// Applied counts the mutations that changed the database: facts
	// actually added (duplicates are no-ops), facts actually removed,
	// or 1 for an effective domain extension.
	Applied int `json:"applied"`

	// Epoch is the live database's version after the write; every
	// effective mutation advances it.
	Epoch uint64 `json:"epoch"`

	// Facts is the live database's fact count after the write.
	Facts int `json:"facts"`
}

// DatabaseState describes the live mutable session: the response of
// GET /v1/db and POST /v1/db, and the live block of /v1/stats (which
// elides the textual form).
type DatabaseState struct {
	// Database is the textual form (format of core.ParseDatabase).
	Database string `json:"database,omitempty"`

	// Epoch is the database's monotone version counter.
	Epoch   uint64 `json:"epoch"`
	Facts   int    `json:"facts"`
	Nulls   int    `json:"nulls"`
	Uniform bool   `json:"uniform,omitempty"`
	Codd    bool   `json:"codd,omitempty"`
}

// Stats is the response of GET /v1/stats: cache and deduplication
// counters that make the service's sharing behaviour observable.
type Stats struct {
	CacheEntries int   `json:"cache_entries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`

	// Computations counts actual evaluations — cache hits and
	// single-flight followers do not increment it.
	Computations int64 `json:"computations"`

	// FlightShared counts requests that attached to an identical
	// in-flight computation instead of starting their own.
	FlightShared int64 `json:"flight_shared"`

	// Mutations counts database deltas absorbed by live sessions;
	// PlansInvalidated counts the cached plans those writes dropped, and
	// FactorsReused counts independent-component counts served from the
	// factor memo instead of re-swept. Together they make the
	// incremental-recount path observable.
	Mutations        int64 `json:"mutations,omitempty"`
	PlansInvalidated int64 `json:"plans_invalidated,omitempty"`
	FactorsReused    int64 `json:"factors_reused,omitempty"`

	// Live describes the live mutable session, if one is loaded.
	Live *DatabaseState `json:"live,omitempty"`

	// Jobs tallies retained jobs by status; JobQueue exposes the durable
	// job subsystem's scheduling gauges and counters.
	Jobs     map[string]int `json:"jobs,omitempty"`
	JobQueue *JobQueueStats `json:"job_queue,omitempty"`

	// Cluster exposes the distributed-sweep coordinator when the server
	// runs with Config.Coordinator: joined workers (with heartbeat ages
	// and throughput), lease gauges (pending/live) and lifetime counters
	// (completed/reissued), and distributed-job totals.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the coordinator's metrics block on /v1/stats; see
// dist.Metrics for the field-by-field meaning.
type ClusterStats = dist.Metrics

// ClusterJobDetail is the per-job distributed-execution block: how the
// coordinator decomposed and ran one job's sweep.
type ClusterJobDetail struct {
	// Space is the sweep's valuation-space size as a decimal string.
	Space string `json:"space,omitempty"`
	// Leases is how many contiguous index-range leases the space was cut
	// into; Done counts the completed ones.
	Leases int `json:"leases"`
	Done   int `json:"done"`
	// Reissued counts lease re-issues after worker loss (heartbeat/TTL
	// expiry); 0 on an undisturbed run.
	Reissued int64 `json:"reissued"`
	// Workers counts the distinct workers that completed at least one of
	// the job's leases.
	Workers int `json:"workers"`
}

// JobQueueStats mirrors the job manager's metrics on /v1/stats: current
// queue state, lifetime scheduling counters, and the freshness of each
// running job's persisted checkpoint.
type JobQueueStats struct {
	// Running and Queued are current gauges; Retained counts every job
	// record still held (including finished ones awaiting TTL eviction).
	Running  int `json:"running"`
	Queued   int `json:"queued"`
	Retained int `json:"retained"`

	// Submitted counts admissions (including recovered resubmissions),
	// Rejected queue-full rejections (HTTP 429), Resumed jobs recovered
	// from the job directory, Completed jobs that reached a terminal
	// status, Evicted records removed by TTL or capacity pruning.
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Resumed   int64 `json:"resumed"`
	Completed int64 `json:"completed"`
	Evicted   int64 `json:"evicted"`

	// CheckpointAgeSeconds maps each running checkpointed job ID to the
	// age of its last persisted checkpoint.
	CheckpointAgeSeconds map[string]float64 `json:"checkpoint_age_seconds,omitempty"`
}

// errorBody is the JSON shape of top-level HTTP errors.
type errorBody struct {
	Error string `json:"error"`
}
