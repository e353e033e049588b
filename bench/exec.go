package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"time"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/plan"
	"github.com/incompletedb/incompletedb/internal/server"
	"github.com/incompletedb/incompletedb/internal/solver"
)

// env is one set-up instance of a workload: the solver its calls go to
// and, for the served workloads, the service on a loopback port with its
// HTTP client.
type env struct {
	solver *solver.Solver
	url    string
	client *http.Client
	live   *solver.PreparedDB
	stop   func()
}

// newEnv starts the program at its defaults but for one sweep worker: a
// service for wire workloads, a solver otherwise, and a live session when
// live is set. One worker keeps each op on one CPU, so an op's latency
// depends on the state of one CPU, not on the slower of two (README.md,
// "Stability and bounds").
func newEnv(wire bool, live string) (*env, error) {
	if !wire {
		e := &env{solver: solver.NewSolver(solver.WithWorkers(1)), stop: func() {}}
		if live != "" {
			db, err := core.ParseDatabaseString(live)
			if err != nil {
				return nil, fmt.Errorf("live database: %w", err)
			}
			if e.live, err = e.solver.Prepare(db); err != nil {
				return nil, fmt.Errorf("live database: %w", err)
			}
		}
		return e, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &env{
		solver: srv.Solver(),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: tr, Timeout: time.Minute},
		stop: func() {
			tr.CloseIdleConnections()
			cancel()
			<-done
		},
	}, nil
}

// post sends o to the service and checks the answer.
func (e *env) post(ctx context.Context, o *op) error {
	body, err := json.Marshal(o.req)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/"+o.endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: HTTP %d: %s", o.endpoint, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var out server.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("%s: decoding response: %w", o.endpoint, err)
	}
	return check(o, &out)
}

// check compares a response with the answer the op must get.
func check(o *op, r *server.Response) error {
	switch o.endpoint {
	case epClassify:
		if !reflect.DeepEqual(r.Classification, o.class) {
			return fmt.Errorf("op %d: classification of %q differs from the library's", o.seq, o.req.Query)
		}
	case epEstimate:
		est, ok := new(big.Int).SetString(r.Count, 10)
		if !ok || !est.IsInt64() || est.Int64() < o.estMin || est.Int64() > o.estMax {
			return fmt.Errorf("op %d: estimate %q outside [%d, %d]", o.seq, r.Count, o.estMin, o.estMax)
		}
	default:
		if r.Count != o.want {
			return fmt.Errorf("op %d: wrong answer %q, want %s", o.seq, r.Count, o.want)
		}
	}
	return nil
}

// ladder answers o through the same public calls, in the same order, as
// the service's handler for its endpoint (execCached, execEstimate,
// execClassify), with a span around each call. Wire ops start from the
// request's JSON body and end by encoding the response; library ops start
// from the texts.
func (e *env) ladder(ctx context.Context, o *op, tr *tracer, c *counters, wire bool) error {
	req := o.req
	if wire {
		body, err := json.Marshal(o.req)
		if err != nil {
			return err
		}
		sp := tr.begin("server.decode")
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		req = server.Request{}
		err = dec.Decode(&req)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	var resp *server.Response
	var err error
	switch o.endpoint {
	case epClassify:
		resp, err = e.classify(tr, req)
	case epEstimate:
		resp, err = e.estimate(ctx, tr, req, c, wire)
	case epMutate:
		resp, err = e.mutate(ctx, tr, o, c)
	default:
		resp, err = e.count(ctx, tr, req, c, wire)
	}
	if err != nil {
		return fmt.Errorf("op %d: %w", o.seq, err)
	}
	return check(o, resp)
}

// encode marshals resp the way the service writes it.
func encode(tr *tracer, build func() *server.Response) (*server.Response, error) {
	sp := tr.begin("server.encode")
	defer tr.end(sp)
	resp := build()
	_, err := json.MarshalIndent(resp, "", "  ")
	return resp, err
}

func (e *env) classify(tr *tracer, req server.Request) (*server.Response, error) {
	sp := tr.begin("cq.parse")
	q, err := cq.ParseBCQ(req.Query)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("classify.all")
	results, err := classify.ClassifyAll(q)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return encode(tr, func() *server.Response {
		return &server.Response{Op: server.OpClassify, Query: q.String(), Classification: classifyRows(results)}
	})
}

// session parses the request's texts and prepares the database.
func (e *env) session(tr *tracer, req server.Request) (*solver.PreparedDB, cq.Query, error) {
	sp := tr.begin("cq.parse")
	q, err := cq.Parse(req.Query)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("core.parse")
	db, err := core.ParseDatabaseString(req.Database)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("solver.prepare")
	pdb, err := e.solver.Prepare(db)
	tr.end(sp)
	return pdb, q, err
}

func (e *env) count(ctx context.Context, tr *tracer, req server.Request, c *counters, wire bool) (*server.Response, error) {
	pdb, q, err := e.session(tr, req)
	if err != nil {
		return nil, err
	}
	return countOn(ctx, tr, pdb, q, req.Kind, c, wire)
}

// countOn peeks at the result cache and on a miss builds the plan with
// Explain, then counts with CountWith, which runs the plan Explain cached.
func countOn(ctx context.Context, tr *tracer, pdb *solver.PreparedDB, q cq.Query, kind string, c *counters, wire bool) (*server.Response, error) {
	fpKind, ck := fingerprint.KindVal, classify.Valuations
	if kind == server.KindComp {
		fpKind, ck = fingerprint.KindComp, classify.Completions
	} else {
		kind = server.KindVal
	}
	sp := tr.begin("solver.cache_peek")
	res, hit := pdb.Cached(q, fpKind)
	tr.end(sp)
	if !hit {
		sp = tr.begin("plan.build")
		pl, err := pdb.Explain(q, ck)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		c.plan(pl)
		sp = tr.begin("count.execute")
		res, err = pdb.CountWith(ctx, q, ck, &count.Options{})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		c.result(res, ck)
	}
	if !wire {
		return &server.Response{Count: res.Count.String()}, nil
	}
	return encode(tr, func() *server.Response { return countResponse(q, kind, res) })
}

// countResponse mirrors the service's response to a count.
func countResponse(q cq.Query, kind string, res *solver.Result) *server.Response {
	resp := &server.Response{
		Op:          server.OpCount,
		Query:       q.String(),
		Kind:        kind,
		Count:       res.Count.String(),
		Method:      string(res.Method),
		Kernel:      res.Stats.Kernel,
		Fingerprint: res.Fingerprint,
		Cached:      res.Stats.CacheHit,
	}
	if st := res.Stats; st.PhaseStep != 0 || st.PhaseMatch != 0 || st.PhaseDedup != 0 {
		resp.Phases = &server.PhaseDetail{
			StepMS:  float64(st.PhaseStep.Microseconds()) / 1e3,
			MatchMS: float64(st.PhaseMatch.Microseconds()) / 1e3,
			DedupMS: float64(st.PhaseDedup.Microseconds()) / 1e3,
		}
	}
	if res.Plan != nil {
		resp.Plan = res.Plan.JSON()
	}
	return resp
}

func (e *env) estimate(ctx context.Context, tr *tracer, req server.Request, c *counters, wire bool) (*server.Response, error) {
	pdb, q, err := e.session(tr, req)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("approx.estimate")
	res, err := pdb.Estimate(ctx, q, req.Eps, req.Delta, rand.New(rand.NewSource(req.Seed)))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c.samples += int64(res.Samples)
	if !wire {
		return &server.Response{Count: res.Estimate.String()}, nil
	}
	return encode(tr, func() *server.Response {
		resp := &server.Response{
			Op:     server.OpEstimate,
			Query:  q.String(),
			Kind:   server.KindVal,
			Count:  res.Estimate.String(),
			Method: fmt.Sprintf("approx/karp-luby(eps=%g, delta=%g, samples=%d)", req.Eps, req.Delta, res.Samples),
			Estimate: &server.EstimateDetail{
				Eps: req.Eps, Delta: req.Delta, Seed: req.Seed, Samples: res.Samples,
				Cylinders: res.Cylinders, TotalWeight: res.TotalWeight.String(),
			},
		}
		if res.Plan != nil {
			resp.Plan = res.Plan.JSON()
		}
		return resp
	})
}

// mutate writes o's fact to the live session, then counts on it.
func (e *env) mutate(ctx context.Context, tr *tracer, o *op, c *counters) (*server.Response, error) {
	sp := tr.begin("core.parse")
	f, err := core.ParseFact(o.fact)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("solver.mutate")
	if o.remove {
		if !e.live.RemoveFact(f.Rel, f.Args...) {
			err = fmt.Errorf("%s was not present", o.fact)
		}
	} else {
		err = e.live.AddFact(f.Rel, f.Args...)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c.writes++
	sp = tr.begin("cq.parse")
	q, err := cq.Parse(o.req.Query)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c.reads++
	return countOn(ctx, tr, e.live, q, server.KindVal, c, false)
}

// Plan routes, by the operator at the root of a plan (under complements).
const (
	routeExact = iota
	routeCylinderIE
	routeSweep
	routeFactor
	numRoutes
)

var routeNames = [numRoutes]string{"exact", "cylinder_ie", "sweep", "factor"}

// counters tallies the work the program reports per call, for the
// per-layer ratios.
type counters struct {
	builds        int64
	routes        [numRoutes]int64
	swept         float64 // valuations swept
	compSwept     float64 // valuations swept by #Comp sweeps
	comps         float64 // completions those sweeps counted
	step, match   time.Duration
	dedup         time.Duration
	samples       int64
	writes, reads int64
}

func (c *counters) plan(p *plan.Plan) {
	c.builds++
	n := p.Root
	for n.Op == plan.OpComplement {
		n = n.Children[0]
	}
	switch n.Op {
	case plan.OpFactor, plan.OpFactorUnion:
		c.routes[routeFactor]++
	case plan.OpCylinderIE:
		c.routes[routeCylinderIE]++
	case plan.OpSweep:
		c.routes[routeSweep]++
	default:
		c.routes[routeExact]++
	}
}

func (c *counters) result(res *solver.Result, kind classify.CountingKind) {
	st := res.Stats
	if st.SweptValuations != nil {
		v, _ := new(big.Float).SetInt(st.SweptValuations).Float64()
		c.swept += v
		if kind == classify.Completions {
			n, _ := new(big.Float).SetInt(res.Count).Float64()
			c.compSwept += v
			c.comps += n
		}
	}
	c.step += st.PhaseStep
	c.match += st.PhaseMatch
	c.dedup += st.PhaseDedup
}
