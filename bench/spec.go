package main

// The benchmark's workloads and metrics. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds;
// TestSpecMatchesBenchmarkJSON keeps the two in step.

// workload is one set of inputs the benchmark runs, closed-loop, by one
// caller.
type workload struct {
	name   string
	why    string
	wire   bool // driven over loopback HTTP; otherwise through the library
	warmup int  // ops run at the end of set-up, not recorded
	stream func(seed int64) (*stream, error)
}

var workloads = []*workload{
	{"serve-cached", "all 512 fingerprints fit the result cache, so every count is a hit: HTTP, JSON, parsing, canonicalization and the cache peek", true, 500, cachedStream},
	{"serve-cold", "every database is new, one per planner route (Codd, dedup sweep, estimate, cylinder IE, join plan), so planning and counting dominate", true, 100, coldStream},
	{"sweep-val", "a 16-cycle with 3 chords has 19 cylinders, past the IE cap, so #Val sweeps 2^16 valuations: step and match", false, 100, sweepValStream},
	{"sweep-comp", "2^14 valuations collapse to 28 completions, so the #Comp sweep is dominated by completion dedup", false, 100, sweepCompStream},
	{"live-mutate", "a write to one of 12 components, then a recount: the plan is invalidated and rebuilt, and 11 factors come from the memo", false, 100, liveStream},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricSpec names one reported metric. bound is the share of the
// baseline median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd are the metrics a user of the library or service sees; they
// are measured with tracing off. Why latency is in refs, and why there is
// no tail, throughput or CPU metric, is in README.md, "Stability and
// bounds".
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"latency_norm", "refs", "lower", 0.2},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// Layer time is reported as the layer's share of op wall time (self time
// over the summed wall time of the traced ops), so a layer that a workload
// never calls reads 0 rather than a zero duration.
var layerSpans = []string{
	"server.decode", "server.encode", "core.parse", "cq.parse",
	"classify.all", "solver.prepare", "solver.cache_peek", "solver.mutate",
	"plan.build", "count.execute", "approx.estimate",
}

// perLayer are the metrics of the traced run, in print order.
var perLayer = func() []metricSpec {
	var m []metricSpec
	for _, l := range layerSpans {
		m = append(m, metricSpec{name: l + "_share", unit: "share", better: "lower"})
	}
	return append(m, []metricSpec{
		{name: "server.transport_share", unit: "share", better: "lower"},
		{name: "solver.cache_hit_ratio", unit: "ratio", better: "higher"},
		{name: "solver.computations_per_op", unit: "count", better: "lower"},
		{name: "plan.builds_per_op", unit: "count", better: "lower"},
		{name: "plan.route_share.exact", unit: "share", better: "higher"},
		{name: "plan.route_share.cylinder_ie", unit: "share", better: "lower"},
		{name: "plan.route_share.sweep", unit: "share", better: "lower"},
		{name: "plan.route_share.factor", unit: "share", better: "higher"},
		{name: "sweep.valuations_per_op", unit: "valuations", better: "lower"},
		{name: "sweep.step_share", unit: "share", better: "lower"},
		{name: "sweep.match_share", unit: "share", better: "lower"},
		{name: "sweep.dedup_share", unit: "share", better: "lower"},
		{name: "sweep.comp_per_valuation", unit: "ratio", better: "higher"},
		{name: "approx.samples_per_op", unit: "count", better: "lower"},
		{name: "solver.plans_patched_per_write", unit: "count", better: "higher"},
		{name: "solver.plans_invalidated_per_write", unit: "count", better: "lower"},
		{name: "solver.factors_reused_per_read", unit: "count", better: "higher"},
		{name: "runtime.allocs_per_op", unit: "count", better: "lower"},
		{name: "runtime.alloc_bytes_per_op", unit: "bytes", better: "lower"},
		{name: "runtime.gc_cpu_share", unit: "share", better: "lower"},
		{name: "host.ref_ms", unit: "ms", better: "lower"},
		{name: "trace.overhead_pct", unit: "%", better: "lower"},
	}...)
}()

// defaultSeconds is the measured window of one run.
const defaultSeconds = 10

// minOps is the fewest ops each op kind must record in a measured window,
// so that the kind's median latency rests on fifty samples each side.
const minOps = 100

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 5
