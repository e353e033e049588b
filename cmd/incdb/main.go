// Command incdb is the command-line interface to the incompletedb library:
// it classifies self-join-free Boolean conjunctive queries according to the
// dichotomies of Arenas, Barceló and Monet (PODS 2020), counts valuations
// and completions of incomplete databases exactly or approximately, runs
// the paper-reproduction experiment suite, and serves all of the above as
// a caching HTTP/JSON service.
//
// Usage:
//
//	incdb classify -q "R(x,y) ∧ S(x)" [-json]
//	incdb table1
//	incdb count -db data.idb -q "R(x,x)" -kind val [-json]
//	incdb estimate -db data.idb -q "R(x,x)" -eps 0.05 -delta 0.01
//	incdb serve -addr 127.0.0.1:8333 -db data.idb -cache 1024 -max 4194304
//	incdb worker -join http://127.0.0.1:8333
//	incdb mutate -addr http://127.0.0.1:8333 -add "R(a, ?3)" -extend "?3 a b" -remove "S(b)"
//	incdb experiments [-quick] [-seed N]
//
// Ctrl-C (SIGINT) and SIGTERM cancel in-flight brute-force sweeps: count
// and estimate return promptly with a cancellation error, and serve shuts
// down gracefully, stopping all running jobs.
//
// Database files use the textual format of core.ParseDatabase:
//
//	# comment
//	uniform a b c
//	R(a, ?1)
//
// or, for non-uniform databases, "dom ?1 a b" lines before the facts.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	incdb "github.com/incompletedb/incompletedb"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/dist"
	"github.com/incompletedb/incompletedb/internal/experiments"
	"github.com/incompletedb/incompletedb/internal/jobs"
	"github.com/incompletedb/incompletedb/internal/loadgen"
	"github.com/incompletedb/incompletedb/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// One signal-aware context for the whole invocation: Ctrl-C cancels
	// in-flight sweeps instead of being ignored until they finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "classify":
		err = cmdClassify(os.Args[2:])
	case "table1":
		fmt.Print(incdb.Table1())
	case "count":
		err = cmdCount(ctx, os.Args[2:])
	case "explain":
		err = cmdExplain(ctx, os.Args[2:])
	case "estimate":
		err = cmdEstimate(ctx, os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "worker":
		err = cmdWorker(ctx, os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(ctx, os.Args[2:])
	case "mutate":
		err = cmdMutate(ctx, os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "incdb: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "incdb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `incdb — counting problems over incomplete databases (PODS 2020 reproduction)

commands:
  classify -q QUERY              classify an sjfBCQ under all eight variants (Table 1)
  table1                         print the dichotomy table of the paper
  count -db FILE -q QUERY        count valuations/completions (-kind val|comp|all-comp,
                                 -workers N, -timeout D)
  explain -db FILE -q QUERY      compile and render the query plan without executing it
                                 (-kind val|comp, -max N, -max-cylinders N, -timeout D)
  estimate -db FILE -q QUERY     Karp–Luby FPRAS for #Val (-eps, -delta, -seed, -timeout D)
  serve                          HTTP/JSON counting service (-addr, -cache, -max, -workers,
                                 -jobs, -db FILE preloads the live mutable session;
                                 -jobdir DIR makes jobs durable: checkpointed sweeps
                                 resume across restarts; -job-ttl, -max-concurrent-jobs,
                                 -max-queued-jobs, -checkpoint-interval tune the queue;
                                 -pprof exposes /debug/pprof/ for profiling live sweeps;
                                 -coordinator decomposes oversized brute-force jobs into
                                 range leases for joined incdb worker processes, with
                                 -dist-threshold, -lease-ttl, -lease-valuations tuning
                                 and -cluster-token guarding /cluster on open networks)
  worker -join URL               join a serve -coordinator as a sweep worker: pull range
                                 leases, sweep them, stream partials back (-name,
                                 -parallel N, -poll D, -token matching -cluster-token);
                                 Ctrl-C leaves cleanly and the coordinator re-issues
                                 anything unfinished
  loadgen -addr URL              drive a running server with a weighted operation mix and
                                 report throughput + latency histograms (-duration, -workers,
                                 -profile "count=4,jobs=1", -anchor N, -json, -out FILE, -check)
  mutate -addr URL               mutate a running server's live session in command-line order
                                 (-load FILE, -add FACT, -remove FACT, -extend "?1 a b", -show)
  experiments [-quick] [-seed N] run the paper-reproduction experiment suite

classify, count, explain and estimate accept -json for machine-readable
output (the same schema the serve API returns). -timeout (for example
-timeout 30s) aborts long sweeps/sampling with a deadline error.`)
}

// printJSON writes v to stdout in the server API's JSON shape.
func printJSON(v interface{}) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// execJSON runs one request through the server package's execution path —
// the CLI's -json output and the serve API share one schema and one
// implementation — cancelling it when ctx is.
func execJSON(ctx context.Context, cfg server.Config, req server.Request) error {
	srv := server.New(cfg)
	defer srv.Close()
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	resp := srv.Execute(req)
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	return printJSON(resp)
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	qstr := fs.String("q", "", "self-join-free Boolean conjunctive query")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON")
	fs.Parse(args)
	if *qstr == "" {
		return fmt.Errorf("classify: -q is required")
	}
	if *jsonOut {
		return execJSON(context.Background(), server.Config{}, server.Request{Op: server.OpClassify, Query: *qstr})
	}
	q, err := incdb.ParseBCQ(*qstr)
	if err != nil {
		return err
	}
	results, err := incdb.ClassifyAll(q)
	if err != nil {
		return err
	}
	fmt.Printf("query: %v\n", q)
	for _, r := range results {
		line := fmt.Sprintf("  %-14s %-12s approx: %-24s", r.Variant, r.Complexity, r.Approx)
		if r.HardPattern != nil {
			line += fmt.Sprintf(" hard pattern: %v", r.HardPattern)
		}
		fmt.Println(line + "   [" + r.Reference + "]")
	}
	return nil
}

func loadDB(path string) (*incdb.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return incdb.ParseDatabase(f)
}

// withTimeout wraps ctx with a deadline when the -timeout flag is set,
// so a long guarded sweep (or sampling loop) aborts cleanly with a
// deadline error instead of running unbounded.
func withTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

func cmdCount(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("count", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	qstr := fs.String("q", "", "Boolean query")
	kind := fs.String("kind", "val", "what to count: val | comp | all-comp")
	maxVals := fs.Int64("max", count.DefaultMaxValuations, "brute-force guard (number of valuations)")
	workers := fs.Int("workers", 0, "parallel workers for brute-force sweeps (0 = one per CPU, 1 = serial)")
	timeout := fs.Duration("timeout", 0, "abort counting after this long, e.g. 30s (0 = no timeout)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (count, method, duration)")
	fs.Parse(args)
	if *dbPath == "" || (*qstr == "" && *kind != "all-comp") {
		return fmt.Errorf("count: -db and -q are required")
	}
	if *workers < 0 {
		return fmt.Errorf("count: -workers must be ≥ 0, got %d", *workers)
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	if *jsonOut {
		raw, err := os.ReadFile(*dbPath)
		if err != nil {
			return err
		}
		req := server.Request{Op: server.OpCount, Database: string(raw), Query: *qstr, Kind: *kind}
		if *kind == "all-comp" {
			// #Comp(TRUE) counts all completions.
			req.Query, req.Kind = "TRUE", server.KindComp
		}
		cfg := server.Config{MaxValuations: *maxVals, Workers: *workers}
		return execJSON(ctx, cfg, req)
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	s := incdb.NewSolver(incdb.WithMaxValuations(*maxVals), incdb.WithWorkers(*workers))
	pdb, err := s.Prepare(db)
	if err != nil {
		return err
	}
	switch *kind {
	case "val":
		q, err := incdb.ParseQuery(*qstr)
		if err != nil {
			return err
		}
		res, err := pdb.Count(ctx, q, incdb.Valuations)
		if err != nil {
			return err
		}
		fmt.Printf("#Val(%v) = %v   [%s]\n", q, res.Count, res.Method)
	case "comp":
		q, err := incdb.ParseQuery(*qstr)
		if err != nil {
			return err
		}
		res, err := pdb.Count(ctx, q, incdb.Completions)
		if err != nil {
			return err
		}
		fmt.Printf("#Comp(%v) = %v   [%s]\n", q, res.Count, res.Method)
	case "all-comp":
		res, err := pdb.AllCompletions(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("#Comp(TRUE) = %v   [%s]\n", res.Count, res.Method)
	default:
		return fmt.Errorf("count: unknown -kind %q", *kind)
	}
	return nil
}

// cmdExplain compiles and renders the plan of a counting problem without
// executing it. Text mode prints Plan.Render — byte-identical to what
// POST /v1/explain and the root Explain API render for the same input —
// and -json prints the serve API's explain response.
func cmdExplain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	qstr := fs.String("q", "", "Boolean query")
	kind := fs.String("kind", "val", "what the plan counts: val | comp")
	maxVals := fs.Int64("max", count.DefaultMaxValuations, "brute-force guard the plan is costed against")
	maxCyl := fs.Int("max-cylinders", 0, "cylinder inclusion–exclusion cap (0 = default 18, negative disables)")
	timeout := fs.Duration("timeout", 0, "abandon the command after this long, e.g. 30s (0 = no timeout)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (the serve API's explain response)")
	fs.Parse(args)
	if *dbPath == "" || *qstr == "" {
		return fmt.Errorf("explain: -db and -q are required")
	}
	if *kind != "val" && *kind != "comp" {
		return fmt.Errorf("explain: unknown -kind %q (want val or comp)", *kind)
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	if *jsonOut {
		raw, err := os.ReadFile(*dbPath)
		if err != nil {
			return err
		}
		req := server.Request{Op: server.OpExplain, Database: string(raw), Query: *qstr, Kind: *kind, MaxValuations: *maxVals, MaxCylinders: *maxCyl}
		// The embedded server's caps mirror the flags, so the request is
		// never clamped below what text mode plans with.
		return execJSON(ctx, server.Config{MaxValuations: *maxVals, MaxCylinders: *maxCyl}, req)
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	q, err := incdb.ParseQuery(*qstr)
	if err != nil {
		return err
	}
	ckind := incdb.Valuations
	if *kind == "comp" {
		ckind = incdb.Completions
	}
	s := incdb.NewSolver(incdb.WithMaxValuations(*maxVals), incdb.WithMaxCylinders(*maxCyl))
	pdb, err := s.Prepare(db)
	if err != nil {
		return err
	}
	// Planning is polynomial but not instantaneous on big inputs, and it
	// has no internal cancellation points — run it aside and let the
	// deadline (or Ctrl-C) abandon it, so -timeout bounds this command
	// like it bounds count and estimate.
	type planned struct {
		p   *incdb.Plan
		err error
	}
	ch := make(chan planned, 1)
	go func() {
		p, err := pdb.Explain(q, ckind)
		ch <- planned{p, err}
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case out := <-ch:
		if out.err != nil {
			return out.err
		}
		fmt.Print(out.p.Render())
		return nil
	}
}

func cmdEstimate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	dbPath := fs.String("db", "", "database file")
	qstr := fs.String("q", "", "(union of) Boolean conjunctive query(ies)")
	eps := fs.Float64("eps", 0.05, "multiplicative error ε")
	delta := fs.Float64("delta", 0.05, "failure probability δ")
	seed := fs.Int64("seed", 1, "random seed")
	timeout := fs.Duration("timeout", 0, "abort sampling after this long, e.g. 30s (0 = no timeout)")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (the serve API's estimate response, sampling diagnostics included)")
	fs.Parse(args)
	if *dbPath == "" || *qstr == "" {
		return fmt.Errorf("estimate: -db and -q are required")
	}
	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()
	if *jsonOut {
		raw, err := os.ReadFile(*dbPath)
		if err != nil {
			return err
		}
		req := server.Request{Op: server.OpEstimate, Database: string(raw), Query: *qstr, Eps: *eps, Delta: *delta, Seed: *seed}
		return execJSON(ctx, server.Config{}, req)
	}
	db, err := loadDB(*dbPath)
	if err != nil {
		return err
	}
	q, err := incdb.ParseQuery(*qstr)
	if err != nil {
		return err
	}
	pdb, err := incdb.NewSolver().Prepare(db)
	if err != nil {
		return err
	}
	res, err := pdb.Estimate(ctx, q, *eps, *delta, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	fmt.Printf("#Val(%v) ≈ %v   (ε=%v, δ=%v; Karp–Luby FPRAS)\n", q, res.Estimate, *eps, *delta)
	fmt.Printf("  %d samples over %d cylinders (total weight %v)\n", res.Samples, res.Cylinders, res.TotalWeight)
	return nil
}

func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8333", "listen address")
	dbPath := fs.String("db", "", "database file to preload as the live mutable session")
	cacheSize := fs.Int("cache", server.DefaultCacheSize, "result-cache capacity in entries (negative disables caching)")
	maxVals := fs.Int64("max", count.DefaultMaxValuations, "per-request valuation budget for brute-force sweeps")
	maxCyl := fs.Int("max-cylinders", 0, "per-request cap on cylinder inclusion–exclusion (0 = default 18, negative disables)")
	workers := fs.Int("workers", 0, "worker pool per sweep (0 = one per CPU)")
	maxJobs := fs.Int("jobs", server.DefaultMaxJobs, "maximum retained (terminal) jobs")
	jobDir := fs.String("jobdir", "", "directory persisting job records; killed/restarted servers resume checkpointed sweeps from it")
	jobTTL := fs.Duration("job-ttl", jobs.DefaultTTL, "how long finished jobs are retained before eviction")
	maxConcurrent := fs.Int("max-concurrent-jobs", jobs.DefaultMaxConcurrent, "async jobs sweeping at once; excess admissions queue")
	maxQueued := fs.Int("max-queued-jobs", jobs.DefaultMaxQueue, "admission queue bound; submissions beyond it get HTTP 429")
	ckptInterval := fs.Duration("checkpoint-interval", jobs.DefaultPersistInterval, "how often running jobs' sweep checkpoints are persisted")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profile live sweeps)")
	coordinator := fs.Bool("coordinator", false, "accept incdb worker processes and fan oversized brute-force jobs out to them as range leases")
	distThreshold := fs.Int64("dist-threshold", server.DefaultDistThreshold, "minimum sweep size (valuations) a job must reach to distribute")
	leaseTTL := fs.Duration("lease-ttl", dist.DefaultLeaseTTL, "lease expiry: a range with no worker progress for this long is re-issued")
	leaseVals := fs.Int64("lease-valuations", dist.DefaultLeaseValuations, "target valuations per lease (the job is cut into 8–512 ranges around it)")
	clusterToken := fs.String("cluster-token", "", "shared secret workers must present on /cluster requests (empty trusts the network)")
	fs.Parse(args)
	cfg := server.Config{
		CacheSize:          *cacheSize,
		MaxValuations:      *maxVals,
		MaxCylinders:       *maxCyl,
		Workers:            *workers,
		MaxJobs:            *maxJobs,
		MaxConcurrentJobs:  *maxConcurrent,
		MaxQueuedJobs:      *maxQueued,
		JobTTL:             *jobTTL,
		JobPersistInterval: *ckptInterval,
		Pprof:              *pprofOn,
		Coordinator:        *coordinator,
		DistThreshold:      *distThreshold,
		LeaseTTL:           *leaseTTL,
		LeaseValuations:    *leaseVals,
		ClusterToken:       *clusterToken,
	}
	if *jobDir != "" {
		store, err := jobs.NewFileStore(*jobDir)
		if err != nil {
			return err
		}
		cfg.JobStore = store
	}
	srv := server.New(cfg)
	if *dbPath != "" {
		db, err := loadDB(*dbPath)
		if err != nil {
			return err
		}
		if err := srv.LoadDatabase(db); err != nil {
			return fmt.Errorf("serve: preload %s: %w", *dbPath, err)
		}
		fmt.Fprintf(os.Stderr, "incdb: live session loaded from %s (%d facts)\n", *dbPath, len(db.Facts()))
	}
	// Recovery runs after the live database is loaded: a recovered job
	// whose request targets the live session needs it in place.
	if *jobDir != "" {
		resumed, err := srv.RecoverJobs()
		if err != nil {
			return fmt.Errorf("serve: recover jobs from %s: %w", *jobDir, err)
		}
		if resumed > 0 {
			fmt.Fprintf(os.Stderr, "incdb: resumed %d checkpointed job(s) from %s\n", resumed, *jobDir)
		}
	}
	if *coordinator {
		fmt.Fprintf(os.Stderr, "incdb: coordinator on: jobs of ≥ %d valuations distribute to joined workers (lease TTL %s)\n",
			*distThreshold, *leaseTTL)
	}
	fmt.Fprintf(os.Stderr, "incdb: serving on http://%s (cache %d entries, budget %d valuations)\n",
		*addr, *cacheSize, *maxVals)
	return srv.ListenAndServe(ctx, *addr)
}

// cmdWorker joins a serve -coordinator as a sweep worker and runs until
// interrupted. Losing the worker is safe at any point: the coordinator
// re-issues its unfinished leases from the last accepted watermark.
func cmdWorker(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	join := fs.String("join", "http://127.0.0.1:8333", "base URL of the serve -coordinator to join")
	name := fs.String("name", "", "worker name shown in /v1/stats (default: the coordinator-assigned ID)")
	parallel := fs.Int("parallel", 0, "leases swept concurrently (0 = one per CPU)")
	poll := fs.Duration("poll", 0, "idle lease-pull cadence (0 = default)")
	token := fs.String("token", "", "shared cluster secret matching the coordinator's -cluster-token")
	fs.Parse(args)
	err := dist.RunWorker(ctx, dist.WorkerConfig{
		Coordinator: strings.TrimRight(*join, "/"),
		Name:        *name,
		Parallel:    *parallel,
		Poll:        *poll,
		Token:       *token,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "incdb worker: "+format+"\n", args...)
		},
	})
	// Ctrl-C is the intended way to stop a worker, not an error.
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// cmdLoadgen drives a running incdb serve with the load harness and
// prints (or writes) its report.
func cmdLoadgen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8333", "base URL of a running incdb serve")
	duration := fs.Duration("duration", 15*time.Second, "how long to generate load")
	warmup := fs.Duration("warmup", time.Second, "initial unrecorded slice of the run (negative disables)")
	workers := fs.Int("workers", 8, "concurrent closed-loop workers")
	profile := fs.String("profile", "", `operation mix as "op=weight,..." over classify, count, comp, estimate, mutate, jobs, distjob (default "count=4,comp=2,classify=2,estimate=1,mutate=1,jobs=1,distjob=1")`)
	maxOps := fs.Int64("max-ops", 0, "stop after this many recorded operations (0 = unlimited)")
	seed := fs.Int64("seed", 1, "workload RNG seed")
	anchor := fs.Int64("anchor", 0, "also run one long checkpointed brute-force job of this sweep size (e.g. 1073741824), cancelled after the run")
	asJSON := fs.Bool("json", false, "print the report as JSON instead of text")
	out := fs.String("out", "", "also write the JSON report to this file")
	check := fs.Bool("check", false, "exit non-zero if the run recorded errors or no operations")
	fs.Parse(args)

	cfg := loadgen.Config{
		BaseURL:          *addr,
		Workers:          *workers,
		Duration:         *duration,
		Warmup:           *warmup,
		MaxOps:           *maxOps,
		Seed:             *seed,
		AnchorValuations: *anchor,
	}
	if *profile != "" {
		p, err := parseProfile(*profile)
		if err != nil {
			return err
		}
		cfg.Profile = p
	}
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}
	if *out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *asJSON {
		if err := printJSON(rep); err != nil {
			return err
		}
	} else {
		fmt.Print(rep.Text())
	}
	if *check {
		if rep.Ops == 0 {
			return errors.New("loadgen: check failed: no operations were recorded")
		}
		if rep.Errors > 0 {
			return fmt.Errorf("loadgen: check failed: %d errors (samples: %s)", rep.Errors, strings.Join(rep.ErrorSamples, "; "))
		}
	}
	return nil
}

// parseProfile parses "count=4,jobs=1" into operation weights.
func parseProfile(s string) (map[string]int, error) {
	p := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: bad profile entry %q (want op=weight)", part)
		}
		var weight int
		if _, err := fmt.Sscanf(w, "%d", &weight); err != nil || weight < 0 {
			return nil, fmt.Errorf("loadgen: bad weight in %q", part)
		}
		p[strings.TrimSpace(op)] = weight
	}
	return p, nil
}

// mutOp is one ordered live-session write from the mutate command line;
// flag.Var callbacks fire in argument order, so interleaved -add/-remove/
// -extend flags apply in the order the user wrote them.
type mutOp struct {
	kind string // "add" | "remove" | "extend"
	arg  string
}

// opFlag collects one kind of repeated mutate flag into the shared
// ordered op list.
type opFlag struct {
	ops  *[]mutOp
	kind string
}

func (f opFlag) String() string { return "" }
func (f opFlag) Set(v string) error {
	*f.ops = append(*f.ops, mutOp{kind: f.kind, arg: v})
	return nil
}

// httpJSON sends one JSON request to a running incdb serve and decodes
// the JSON response, mapping error bodies to errors.
func httpJSON(ctx context.Context, method, url string, body, out interface{}) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode >= 400 {
		var eb struct {
			Error string `json:"error"`
		}
		if err := dec.Decode(&eb); err == nil && eb.Error != "" {
			return fmt.Errorf("%s %s: %s", method, url, eb.Error)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return dec.Decode(out)
}

// cmdMutate speaks to a running incdb serve's live mutable session:
// -load replaces the database, then each -add/-remove/-extend applies in
// command-line order, and -show prints the resulting database.
func cmdMutate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8333", "base URL of a running incdb serve")
	load := fs.String("load", "", "database file to load as the live session (POST /v1/db) before mutating")
	show := fs.Bool("show", false, "print the live database after applying all mutations")
	jsonOut := fs.Bool("json", false, "emit each mutation response as JSON")
	var ops []mutOp
	fs.Var(opFlag{&ops, "add"}, "add", "fact to add, e.g. 'R(a, ?1)' (repeatable)")
	fs.Var(opFlag{&ops, "remove"}, "remove", "fact to remove (repeatable)")
	fs.Var(opFlag{&ops, "extend"}, "extend", "domain extension '?1 a b' — null then values; omit the null on a uniform database (repeatable)")
	fs.Parse(args)
	if *load == "" && len(ops) == 0 && !*show {
		return fmt.Errorf("mutate: nothing to do (use -load, -add, -remove, -extend or -show)")
	}
	base := strings.TrimSuffix(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if *load != "" {
		raw, err := os.ReadFile(*load)
		if err != nil {
			return err
		}
		var state server.DatabaseState
		if err := httpJSON(ctx, "POST", base+"/v1/db", server.Request{Database: string(raw)}, &state); err != nil {
			return err
		}
		if *jsonOut {
			state.Database = ""
			if err := printJSON(state); err != nil {
				return err
			}
		} else {
			fmt.Printf("loaded %s: %d facts, epoch %d\n", *load, state.Facts, state.Epoch)
		}
	}
	for _, op := range ops {
		var (
			mreq   server.MutationRequest
			method = "POST"
			path   = "/v1/facts"
		)
		switch op.kind {
		case "add":
			mreq.Facts = []string{op.arg}
		case "remove":
			method = "DELETE"
			mreq.Facts = []string{op.arg}
		case "extend":
			path = "/v1/domain"
			fields := strings.Fields(op.arg)
			if len(fields) > 0 && strings.HasPrefix(fields[0], "?") {
				mreq.Null, mreq.Values = fields[0], fields[1:]
			} else {
				mreq.Values = fields
			}
		}
		var mresp server.MutationResponse
		if err := httpJSON(ctx, method, base+path, mreq, &mresp); err != nil {
			return fmt.Errorf("-%s %q: %w", op.kind, op.arg, err)
		}
		if *jsonOut {
			if err := printJSON(mresp); err != nil {
				return err
			}
		} else {
			fmt.Printf("%s %q: applied %d, epoch %d, %d facts\n", op.kind, op.arg, mresp.Applied, mresp.Epoch, mresp.Facts)
		}
	}
	if *show {
		var state server.DatabaseState
		if err := httpJSON(ctx, "GET", base+"/v1/db", struct{}{}, &state); err != nil {
			return err
		}
		if *jsonOut {
			return printJSON(state)
		}
		fmt.Print(state.Database)
	}
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	quick := fs.Bool("quick", false, "smaller instances")
	seed := fs.Int64("seed", 2020, "random seed")
	fs.Parse(args)
	reports := experiments.RunAll(experiments.Config{Quick: *quick, Seed: *seed})
	fmt.Print(experiments.Render(reports))
	fails := 0
	for _, r := range reports {
		if !r.Pass {
			fails++
		}
	}
	fmt.Printf("\n%d/%d experiments passed\n", len(reports)-fails, len(reports))
	if fails > 0 {
		return fmt.Errorf("%d experiment(s) failed", fails)
	}
	return nil
}
