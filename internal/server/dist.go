package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"

	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/dist"
	"github.com/incompletedb/incompletedb/internal/jobs"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// The distributed branch of the async job API: when the server runs
// with a coordinator (Config.Coordinator) and workers have joined, a
// brute-force job whose sweep is at least DistThreshold valuations is
// decomposed into contiguous index-range leases and fanned out to the
// cluster instead of the local pool. The lease table is a
// count.SweepCheckpoint, so the job persists and resumes through
// jobs.Store exactly like a local sweep — a restarted coordinator
// re-issues the unswept remainders of every range, and the merge in
// index order keeps the distributed count bit-identical to a
// single-process sweep.

// runDistributed tries to run one counting job through the coordinator.
// handled reports whether the distributed path took the job; when false
// the caller must run it locally (no workers joined, the sweep is under
// the distribution threshold or over the request's budget, or the plan
// would not brute-force at all).
func (s *Server) runDistributed(ctx context.Context, j *jobs.Job, req Request, pdb *solver.PreparedDB, q cq.Query, kind string, resume *count.SweepCheckpoint) (blob json.RawMessage, handled bool, err error) {
	if s.coord.WorkerCount() == 0 {
		return nil, false, nil
	}
	// Only sweeps distribute. A forced job is a sweep by definition; for
	// the rest, ask the planner — a polynomial plan (or a rewrite around
	// an exact theorem) stays local no matter how large the raw space is.
	if !req.ForceBrute {
		p, perr := pdb.ExplainWith(q, countingKind(kind), s.requestOptions(req, nil))
		if perr != nil || p.Method() != "brute-force" {
			return nil, false, nil
		}
	}
	fpKind, _, err := fingerprintKind(Request{Op: OpCount, Kind: kind})
	if err != nil {
		return nil, true, err
	}
	// A live-session job distributes the current version's text (the
	// same snapshot a local sweep would compile once and hold). liveMu
	// serializes rendering against the write endpoints, and the
	// fingerprint taken with it names the version that is counted.
	s.liveMu.Lock()
	database := req.Database
	if database == "" {
		database = pdb.Database().String()
	}
	fp := pdb.Fingerprint(q, fpKind)
	s.liveMu.Unlock()
	h, err := s.coord.StartJob(dist.JobSpec{
		Database: database,
		Query:    q.String(),
		Kind:     kind,
	}, resume)
	if err != nil {
		// The local path will surface the same compile error with its
		// usual status mapping.
		return nil, false, nil
	}
	size := h.Size()
	budget, _ := s.requestBudget(req)
	if size.Cmp(big.NewInt(s.cfg.distThreshold())) < 0 || size.Cmp(big.NewInt(budget)) > 0 {
		// Too small to be worth the fan-out, or over budget (the local
		// path re-derives the guard error the client should see).
		h.Cancel()
		return nil, false, nil
	}

	// The lease table is the job's checkpoint: the manager's persistence
	// ticker snapshots it into the store, and a restart resumes the job
	// with every range's watermark intact.
	j.SetCheckpointSource(func() json.RawMessage {
		cp := h.Checkpoint()
		if cp == nil {
			return nil
		}
		b, merr := json.Marshal(cp)
		if merr != nil {
			return nil
		}
		return b
	})
	detail := func() {
		st := h.Stats()
		b, merr := json.Marshal(ClusterJobDetail{
			Space:    size.String(),
			Leases:   st.Leases,
			Done:     st.Done,
			Reissued: st.Reissued,
			Workers:  st.Workers,
		})
		if merr == nil {
			j.SetDetail(b)
		}
	}
	detail()
	total, err := h.Wait(ctx, func(done, totalLeases int) {
		j.SetProgress(done, totalLeases)
		detail()
	})
	detail()
	if err != nil {
		return nil, true, err
	}
	st := h.Stats()
	resp := &Response{
		Op:          OpCount,
		Query:       q.String(),
		Kind:        kind,
		Count:       total.String(),
		Method:      fmt.Sprintf("distributed/brute-force(leases=%d, workers=%d, reissued=%d)", st.Leases, st.Workers, st.Reissued),
		Fingerprint: fp,
	}
	blob, err = json.Marshal(resp)
	return blob, true, err
}
