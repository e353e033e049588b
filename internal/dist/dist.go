// Package dist is the distributed-sweep subsystem: a coordinator that
// decomposes one huge brute-force sweep into contiguous mixed-radix
// index-range leases and hands them to remote worker processes over
// HTTP/JSON, re-issuing a lease when its worker stops heartbeating.
//
// The lease table is a plain count.SweepCheckpoint — the same artifact a
// local checkpointed sweep produces — so a distributed job persists
// through the ordinary jobs.Store, a restarted coordinator resumes the
// table where it left off, and a table with no workers left can even be
// finished by a local resumed sweep. Workers sweep each lease serially
// from its watermark with count.SweepShardRange and stream back
// ShardCheckpoint-shaped partials at stride boundaries; the coordinator
// accepts a partial only if it validates against the job's engine, and
// folds completed ranges in index order with count.MergeCheckpoint, so
// the distributed count is bit-identical to a single-process sweep
// (completion dedup included: records carry the 128-bit hash plus the
// exact canonical encoding, and the merge dedups across ranges exactly
// like the in-process shard merge).
//
// Loss model: a lease not renewed (by heartbeat or partial) within its
// TTL reverts to the pending pool with its last accepted watermark and is
// re-issued under a fresh lease ID; publishes under the old ID are
// rejected with a structured error, so a half-dead worker cannot corrupt
// the table. Worker loss therefore costs at most one stride of redone
// work per held lease, and never correctness.
package dist

import (
	"github.com/incompletedb/incompletedb/internal/count"
)

// ProtoVersion is the coordinator/worker wire-protocol version. A worker
// whose version differs is refused at registration with a structured
// version_skew error: the canonical completion encodings embedded in
// checkpoints are only comparable between identical engine builds.
const ProtoVersion = 1

// TokenHeader carries the shared cluster secret on every /cluster
// request when the coordinator is configured with one (Config.Token,
// `serve -cluster-token` / `worker -token`).
const TokenHeader = "X-Cluster-Token"

// Structured error codes carried in every non-2xx /cluster response body.
// Workers branch on the code, never on prose.
const (
	// CodeBadRequest: the request body did not decode at all.
	CodeBadRequest = "bad_request"
	// CodeVersionSkew: the worker's ProtoVersion differs from the
	// coordinator's.
	CodeVersionSkew = "version_skew"
	// CodeUnauthorized: the request is missing the coordinator's shared
	// cluster token, or carries the wrong one. Fatal for a worker —
	// retrying with the same token cannot succeed.
	CodeUnauthorized = "unauthorized"
	// CodeUnknownWorker: the worker ID is not (or no longer) registered;
	// the worker must re-register.
	CodeUnknownWorker = "unknown_worker"
	// CodeUnknownLease: the lease ID is not live — expired and re-issued,
	// completed, or its job is gone. The worker abandons the range.
	CodeUnknownLease = "unknown_lease"
	// CodeBadCheckpoint: the partial's positions, tally, or completion
	// records failed validation against the job's engine (a
	// version-skewed or corrupt payload). The lease is requeued.
	CodeBadCheckpoint = "bad_checkpoint"
)

// ErrorBody is the structured error payload of every non-2xx /cluster
// response.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// RegisterRequest announces a worker process to the coordinator.
type RegisterRequest struct {
	Name         string `json:"name,omitempty"`
	Parallel     int    `json:"parallel,omitempty"`
	ProtoVersion int    `json:"proto_version"`
}

// RegisterResponse assigns the worker its identity and the lease timing
// it must live by.
type RegisterResponse struct {
	WorkerID     string `json:"worker_id"`
	LeaseTTLMS   int64  `json:"lease_ttl_ms"`
	ProtoVersion int    `json:"proto_version"`
}

// HeartbeatRequest renews a worker's liveness (and, implicitly, every
// lease it holds).
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse tells the worker whether lease-worthy work exists,
// so idle workers can back off their pull cadence.
type HeartbeatResponse struct {
	OK      bool `json:"ok"`
	Pending int  `json:"pending_leases"`
}

// LeaseRequest pulls one lease.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// LeaseResponse carries the lease, or nothing (HTTP 204) when no work is
// pending.
type LeaseResponse struct {
	Lease *Lease `json:"lease"`
}

// Lease is one contiguous index range of one job's enumerated space,
// together with everything a worker needs to sweep it from scratch: the
// database text and query (workers are stateless — recompiling both
// yields the same interned IDs and therefore the same canonical
// completion encodings), the sweep kind, and the range's resume state
// (watermark, partial tally, completion records seen so far).
type Lease struct {
	ID    string `json:"id"`
	JobID string `json:"job_id"`
	Index int    `json:"index"`

	Database string `json:"database"`
	Query    string `json:"query"`
	Kind     string `json:"kind"` // "val" | "comp"

	// Space is the coordinator's enumerated-space size; a worker whose
	// compile disagrees reports failure instead of sweeping the wrong
	// radix system.
	Space string `json:"space"`

	Range  count.ShardCheckpoint `json:"range"`
	Stride int64                 `json:"stride_visits"`
}

// ProgressRequest streams one partial (Done false) or the range's final
// state (Done true) back to the coordinator. Next and Count are
// cumulative over [Lo, Next); Entries are the completion records first
// seen since the worker's previous accepted publish.
type ProgressRequest struct {
	WorkerID string                `json:"worker_id"`
	LeaseID  string                `json:"lease_id"`
	Done     bool                  `json:"done,omitempty"`
	Range    count.ShardCheckpoint `json:"range"`
}

// ProgressResponse acknowledges an accepted partial.
type ProgressResponse struct {
	OK bool `json:"ok"`
}

// FailRequest reports that the worker cannot sweep the lease (compile
// failure, space mismatch). The coordinator requeues the range; a range
// that keeps failing fails the whole job rather than spinning forever.
type FailRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
	Error    string `json:"error"`
}
