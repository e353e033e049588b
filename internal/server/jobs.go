package server

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/jobs"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// The async job API is an adapter over the durable job subsystem of
// internal/jobs: the manager owns scheduling (concurrency cap, bounded
// admission queue), persistence (periodic checkpoint capture to the
// configured store) and recovery; this file translates between the wire
// types and the manager's opaque blobs, and builds the RunFunc that
// executes one counting job with a resumable checkpointed sweep.

// StartJob admits an asynchronous counting job for req (which must be an
// OpCount request) and returns its initial snapshot. A request whose
// result is already cached registers as an instantly-done job; everything
// else goes through admission control — jobs.ErrQueueFull (mapped to 429
// + Retry-After by the HTTP layer) when the queue is full.
func (s *Server) StartJob(req Request) (*Job, error) {
	if req.Op == "" {
		req.Op = OpCount
	}
	if req.Op != OpCount {
		return nil, badRequest("jobs support op %q only, got %q", OpCount, req.Op)
	}
	pdb, q, err := s.sessionFor(req)
	if err != nil {
		return nil, err
	}
	fpKind, kind, err := fingerprintKind(req)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, badRequest("request: %v", err)
	}
	// A non-forced job whose result is already cached finishes instantly;
	// ForceBrute jobs always sweep — they exist to (re)do the work.
	if !req.ForceBrute {
		if res, ok := peekCached(req, pdb, q, fpKind); ok {
			blob, err := json.Marshal(s.resultResponse(OpCount, q, kind, res))
			if err != nil {
				return nil, err
			}
			j, err := s.jobs.SubmitDone(raw, blob)
			if err != nil {
				return nil, err
			}
			return jobFromRecord(j.Snapshot()), nil
		}
	}
	j, err := s.jobs.Submit(raw, s.jobRunner(req, pdb, q, kind, nil))
	if err != nil {
		return nil, err
	}
	return jobFromRecord(j.Snapshot()), nil
}

// jobRunner builds the RunFunc of one counting job: a checkpointed
// (resumable) sweep through the solver session. resume, when non-nil, is
// the checkpoint a recovered job continues from.
func (s *Server) jobRunner(req Request, pdb *solver.PreparedDB, q cq.Query, kind string, resume *count.SweepCheckpoint) jobs.RunFunc {
	return func(ctx context.Context, j *jobs.Job) (json.RawMessage, error) {
		if s.coord != nil {
			// The distributed checkpoint is shaped exactly like the local
			// one (the lease table IS a count.SweepCheckpoint), so a job
			// checkpointed by either path can resume on the other.
			if blob, handled, err := s.runDistributed(ctx, j, req, pdb, q, kind, resume); handled {
				return blob, err
			}
		}
		ck := count.NewCheckpointer(s.cfg.CheckpointStride, resume)
		j.SetCheckpointSource(func() json.RawMessage {
			cp := ck.Snapshot()
			if cp == nil {
				return nil
			}
			blob, err := json.Marshal(cp)
			if err != nil {
				return nil
			}
			return blob
		})
		opts := s.requestOptions(req, j.SetProgress)
		opts.Checkpoint = ck
		var res *solver.Result
		var err error
		if req.ForceBrute {
			res, err = pdb.BruteCount(ctx, q, countingKind(kind), opts)
		} else {
			res, err = pdb.CountWith(ctx, q, countingKind(kind), opts)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(s.resultResponse(OpCount, q, kind, res))
	}
}

// RecoverJobs resubmits the jobs a previous process left in the store:
// running and queued records are rehydrated (their sweeps resume from the
// persisted checkpoint), terminal ones are adopted so clients can still
// fetch results across the restart. Call it after loading the live
// database (a recovered job against the live session needs it) and
// before serving traffic. Returns how many jobs resumed.
func (s *Server) RecoverJobs() (int, error) {
	return s.jobs.Recover(func(rec *jobs.Record) (jobs.RunFunc, error) {
		var req Request
		if err := json.Unmarshal(rec.Request, &req); err != nil {
			return nil, fmt.Errorf("stored request: %v", err)
		}
		pdb, q, err := s.sessionFor(req)
		if err != nil {
			return nil, err
		}
		_, kind, err := fingerprintKind(req)
		if err != nil {
			return nil, err
		}
		var resume *count.SweepCheckpoint
		if len(rec.Checkpoint) > 0 {
			cp := new(count.SweepCheckpoint)
			// An undecodable checkpoint is dropped, not fatal: the job
			// restarts from scratch, which is correct, just slower.
			if err := json.Unmarshal(rec.Checkpoint, cp); err == nil {
				resume = cp
			}
		}
		return s.jobRunner(req, pdb, q, kind, resume), nil
	})
}

// jobFromRecord converts a manager record into the wire Job.
func jobFromRecord(rec jobs.Record) *Job {
	job := &Job{
		ID:              rec.ID,
		Status:          string(rec.Status),
		Progress:        rec.Progress,
		ShardsDone:      rec.ShardsDone,
		ShardsTotal:     rec.ShardsTotal,
		CancelRequested: rec.CancelRequested,
		Resumed:         rec.Resumed,
		Error:           rec.Error,
		CreatedAt:       rec.CreatedAt.UTC().Format(time.RFC3339Nano),
	}
	if !rec.FinishedAt.IsZero() {
		job.FinishedAt = rec.FinishedAt.UTC().Format(time.RFC3339Nano)
	}
	if !rec.CheckpointAt.IsZero() {
		job.CheckpointAt = rec.CheckpointAt.UTC().Format(time.RFC3339Nano)
	}
	if len(rec.Request) > 0 {
		var req Request
		if json.Unmarshal(rec.Request, &req) == nil {
			// The submitted database can be megabytes; echoing it back on
			// every progress poll (and for every retained job in a
			// listing) would dwarf the payload that matters. Clients keep
			// their own copy.
			job.DatabaseBytes = len(req.Database)
			req.Database = ""
			job.Request = req
		}
	}
	if len(rec.Detail) > 0 {
		det := new(ClusterJobDetail)
		if json.Unmarshal(rec.Detail, det) == nil {
			job.Cluster = det
		}
	}
	if len(rec.Result) > 0 {
		res := new(Response)
		if json.Unmarshal(rec.Result, res) == nil {
			job.Result = res
		}
	}
	return job
}

// jobStatusCounts tallies retained jobs by status for the stats endpoint.
func (s *Server) jobStatusCounts() map[string]int {
	counts := make(map[string]int)
	for _, rec := range s.jobs.List() {
		counts[string(rec.Status)]++
	}
	return counts
}
