package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/incompletedb/incompletedb/internal/solver"
)

// doFunc runs one op and checks its answer; tr is nil when untraced.
type doFunc func(ctx context.Context, o *op, tr *tracer, c *counters) error

// phase is the outcome of one closed-loop run.
type phase struct {
	// norm holds each op's latency in refs, by op kind: the op's wall
	// time over the mean time of the reference kernel run just before
	// and just after it.
	norm      map[string][]float64
	refs      []float64 // the reference kernel's times, in ms
	attempted int
	failed    int
	firstErr  error
	cpu       time.Duration
	c         counters
	tracer    *tracer
	solver    solver.Metrics // counter deltas over the run
	// allocs, allocBytes and gcCPU are runtime deltas over the run.
	allocs, allocBytes, gcCPU float64
}

// latencyNorm is the mean op latency in refs, with each op taking its
// kind's median, so that a mix of cheap and costly kinds weighs each by
// how often it occurs.
func (p *phase) latencyNorm() float64 {
	var sum float64
	for _, v := range p.norm {
		sum += float64(len(v)) * quartiles(v)[1]
	}
	return div(sum, float64(p.attempted))
}

// run drives one closed-loop caller: it takes the next op, runs it with
// do and waits for the answer before taking another, until next reports
// no more ops. The reference kernel runs between ops, outside their
// timing.
func (e *env) run(ctx context.Context, next func() (op, bool), do doFunc, traced bool) *phase {
	// Start every run from a collected heap, so that no run pays for
	// garbage an earlier one left.
	runtime.GC()
	m0, cpu0, rt0 := e.solver.Metrics(), cpuTime(), readRuntime()
	p := &phase{norm: map[string][]float64{}}
	if traced {
		p.tracer = newTracer(time.Now())
	}
	clock := newRefClock()
	for {
		o, ok := next()
		if !ok {
			break
		}
		p.tracer.startOp(o.seq)
		t0 := time.Now()
		err := do(ctx, &o, p.tracer, &p.c)
		lat := time.Since(t0)
		p.tracer.endOp()
		p.norm[o.kind] = append(p.norm[o.kind], clock.refs(lat))
		p.refs = append(p.refs, float64(clock.last)/float64(time.Millisecond))
		p.attempted++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
	}
	p.cpu = cpuTime() - cpu0 - clock.total
	m1, rt1 := e.solver.Metrics(), readRuntime()
	p.solver = solver.Metrics{
		CacheHits:        m1.CacheHits - m0.CacheHits,
		CacheMisses:      m1.CacheMisses - m0.CacheMisses,
		Computations:     m1.Computations - m0.Computations,
		PlansInvalidated: m1.PlansInvalidated - m0.PlansInvalidated,
		PlansPatched:     m1.PlansPatched - m0.PlansPatched,
		FactorsReused:    m1.FactorsReused - m0.FactorsReused,
	}
	p.allocs, p.allocBytes, p.gcCPU = rt1[0]-rt0[0], rt1[1]-rt0[1], rt1[2]-rt0[2]
	return p
}

// fromList yields ops once each, in order.
func fromList(ops []op) func() (op, bool) {
	return func() (op, bool) {
		if len(ops) == 0 {
			return op{}, false
		}
		o := ops[0]
		ops = ops[1:]
		return o, true
	}
}

// take yields the stream's next n ops.
func take(st *stream, n int) func() (op, bool) {
	return func() (op, bool) {
		if n == 0 {
			return op{}, false
		}
		n--
		return st.next(), true
	}
}

// until yields the stream's ops until d has passed.
func until(st *stream, d time.Duration) func() (op, bool) {
	deadline := time.Now().Add(d)
	return func() (op, bool) {
		if !time.Now().Before(deadline) {
			return op{}, false
		}
		return st.next(), true
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var runtimeSamples = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

// readRuntime reads the cumulative heap allocations (objects, bytes) and
// the CPU seconds the garbage collector has used.
func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return [3]float64{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), s[2].Value.Float64()}
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is one run of one workload, in the shape the benchmark prints
// as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(specs []metricSpec, values map[string]float64, phases ...*phase) *result {
	r := &result{Metrics: make(map[string]metric, len(specs))}
	for _, m := range specs {
		r.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	for _, p := range phases {
		if p != nil {
			r.Attempted += p.attempted
			r.Failed += p.failed
		}
	}
	r.Correct = r.Failed == 0
	return r
}

// merge adds o's metrics and op counts to r.
func (r *result) merge(o *result) {
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Correct = r.Correct && o.Correct
}

// setup starts the program for w and brings it to its steady state: the
// stream's warm ops (a cache fill, or the live session's first write),
// then w.warmup ops of the stream. It returns how long that took in refs,
// timing the start and each op against the reference kernel.
func setup(ctx context.Context, w *workload, st *stream) (*env, float64, error) {
	clock := newRefClock()
	t0 := time.Now()
	e, err := newEnv(w.wire, st.live)
	refs := clock.refs(time.Since(t0))
	if err != nil {
		return nil, 0, err
	}
	do := e.plain(w)
	var c counters
	for _, next := range []func() (op, bool){fromList(st.warm), take(st, w.warmup)} {
		for o, ok := next(); ok; o, ok = next() {
			t0 := time.Now()
			err := do(ctx, &o, nil, &c)
			refs += clock.refs(time.Since(t0))
			if err != nil {
				e.stop()
				return nil, 0, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	return e, refs, nil
}

// plain is how a user drives the workload: over HTTP for the served
// workloads, through the library calls otherwise.
func (e *env) plain(w *workload) doFunc {
	if w.wire {
		return func(ctx context.Context, o *op, _ *tracer, _ *counters) error { return e.post(ctx, o) }
	}
	return e.ladderFunc(w)
}

func (e *env) ladderFunc(w *workload) doFunc {
	return func(ctx context.Context, o *op, tr *tracer, c *counters) error {
		return e.ladder(ctx, o, tr, c, w.wire)
	}
}

// runConfig says what one run of a workload measures.
type runConfig struct {
	seed     int64
	window   time.Duration // length of each measured window
	e2e      bool          // measure the end-to-end metrics, untraced
	traceDir string        // if set, measure the per-layer metrics and write the spans here
	setups   int           // set-ups per run; setup_s is their median, in refs times refSeconds
	minOps   int           // fewest ops of each kind the end-to-end window must record
}

// runWorkload sets w up cfg.setups times, keeps the last instance and
// measures it: first the end-to-end metrics, then the per-layer ones.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*result, error) {
	var e *env
	setups := make([]float64, cfg.setups)
	var st *stream
	for i := range setups {
		if e != nil {
			e.stop()
			runtime.GC()
		}
		var err error
		if st, err = w.stream(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: references: %w", w.name, err)
		}
		var refs float64
		if e, refs, err = setup(ctx, w, st); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		setups[i] = refs * refSeconds
	}
	defer e.stop()

	r := &result{Correct: true, Metrics: map[string]metric{}}
	if cfg.e2e {
		p := e.run(ctx, until(st, cfg.window), e.plain(w), false)
		for kind, v := range p.norm {
			if len(v) < cfg.minOps {
				return nil, fmt.Errorf("%s: recorded %d %s ops in %v, fewer than %d", w.name, len(v), kind, cfg.window, cfg.minOps)
			}
		}
		logFailure(w, p)
		r.merge(newResult(endToEnd, map[string]float64{
			"setup_s":      quartiles(setups)[1],
			"latency_norm": p.latencyNorm(),
			"peak_rss_mb":  peakRSSMB(),
		}, p))
	}
	if cfg.traceDir == "" {
		return r, nil
	}

	// The traced run splits the window: for served workloads an untraced
	// HTTP run (for transport), then the ladder untraced and traced; for
	// library workloads the untraced and traced ladder.
	n := time.Duration(2)
	if w.wire {
		n = 3
	}
	var httpRun *phase
	if w.wire {
		httpRun = e.run(ctx, until(st, cfg.window/n), e.plain(w), false)
	}
	base := e.run(ctx, until(st, cfg.window/n), e.ladderFunc(w), false)
	traced := e.run(ctx, until(st, cfg.window/n), e.ladderFunc(w), true)
	for _, p := range []*phase{httpRun, base, traced} {
		if p != nil {
			logFailure(w, p)
		}
	}
	if err := writeSpans(filepath.Join(cfg.traceDir, w.name+".spans.jsonl"), traced.tracer); err != nil {
		return nil, fmt.Errorf("%s: writing spans: %w", w.name, err)
	}
	plain := base
	if httpRun != nil {
		plain = httpRun
	}
	r.merge(newResult(perLayer, layerMetrics(traced, base, plain, httpRun), httpRun, base, traced))
	return r, nil
}

func logFailure(w *workload, p *phase) {
	if p.failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d ops failed; first: %v\n", w.name, p.failed, p.attempted, p.firstErr)
	}
}

// layerMetrics derives the per-layer metrics: layer shares and counts
// from the traced ladder run, transport from the HTTP run against the
// untraced ladder, runtime costs from the plain run, and the tracing
// overhead from the ladder runs.
func layerMetrics(traced, base, plain, httpRun *phase) map[string]float64 {
	m := map[string]float64{}
	t := traced.tracer
	for _, l := range layerSpans {
		m[l+"_share"] = div(float64(t.self[l]), float64(t.wall))
	}
	if httpRun != nil {
		m["server.transport_share"] = 1 - div(base.latencyNorm(), httpRun.latencyNorm())
	}
	m["host.ref_ms"] = quartiles(plain.refs)[1]
	ops := float64(traced.attempted)
	s, c := traced.solver, traced.c
	m["solver.cache_hit_ratio"] = div(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses))
	m["solver.computations_per_op"] = div(float64(s.Computations), ops)
	m["plan.builds_per_op"] = div(float64(c.builds), ops)
	for i, name := range routeNames {
		m["plan.route_share."+name] = div(float64(c.routes[i]), float64(c.builds))
	}
	m["sweep.valuations_per_op"] = div(c.swept, ops)
	phases := float64(c.step + c.match + c.dedup)
	m["sweep.step_share"] = div(float64(c.step), phases)
	m["sweep.match_share"] = div(float64(c.match), phases)
	m["sweep.dedup_share"] = div(float64(c.dedup), phases)
	m["sweep.comp_per_valuation"] = div(c.comps, c.compSwept)
	m["approx.samples_per_op"] = div(float64(c.samples), ops)
	m["solver.plans_patched_per_write"] = div(float64(s.PlansPatched), float64(c.writes))
	m["solver.plans_invalidated_per_write"] = div(float64(s.PlansInvalidated), float64(c.writes))
	m["solver.factors_reused_per_read"] = div(float64(s.FactorsReused), float64(c.reads))
	m["runtime.allocs_per_op"] = div(plain.allocs, float64(plain.attempted))
	m["runtime.alloc_bytes_per_op"] = div(plain.allocBytes, float64(plain.attempted))
	m["runtime.gc_cpu_share"] = div(plain.gcCPU, plain.cpu.Seconds())
	m["trace.overhead_pct"] = 100 * (div(traced.latencyNorm(), base.latencyNorm()) - 1)
	return m
}
