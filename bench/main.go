// Command bench is the repository's benchmark. It drives the counting
// library and its HTTP service with five seeded, closed-loop workloads,
// checks every answer against a reference known in advance, and prints
// end-to-end metrics, or per-layer metrics from a traced run, as
// "workload metric value unit" lines. See README.md.
//
// From the bench directory:
//
//	go run . -seed 1                      # every workload, each in its own process
//	go run . -seed 1 -trace DIR           # also a traced run; spans go to DIR
//	go run . -seed 1 -runs 5 -json a.json # repeated runs, saved for -compare
//	go run . -compare a.json b.json       # medians, quartiles and verdicts
//	go run . -workload serve-cold -seed 3 -seconds 12 -trace 0
//
// With -workload the run happens in this process and its last line of
// output is the result as one JSON object.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "run only this workload, in this process, and end the output with its result as JSON")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "length of each measured window, in seconds")
	trace := flag.String("trace", "0", `"0" for the end-to-end metrics; "1" or a directory for the per-layer metrics of a traced run, with its spans written to the directory (for "1", incdb-bench-trace under the temp dir)`)
	jsonPath := flag.String("json", "", "also write every run's results to this file")
	runs := flag.Int("runs", 1, "how many times to run every workload")
	cmp := flag.Bool("compare", false, "compare two -json files named as arguments")
	flag.Parse()

	var err error
	switch {
	case *cmp:
		err = compareFiles(flag.Args())
	case *name != "":
		err = runOne(*name, *seed, *seconds, traceDir(*trace))
	default:
		err = runAll(*seed, *seconds, traceDir(*trace), *runs, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// traceDir maps -trace to the directory spans go to; "" turns tracing off.
func traceDir(v string) string {
	switch v {
	case "", "0":
		return ""
	case "1":
		return filepath.Join(os.TempDir(), "incdb-bench-trace")
	}
	return v
}

func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two files, got %d", len(paths))
	}
	a, err := readRunFile(paths[0])
	if err != nil {
		return err
	}
	b, err := readRunFile(paths[1])
	if err != nil {
		return err
	}
	return compare(os.Stdout, a, b)
}

func runOne(name string, seed int64, seconds float64, dir string) error {
	w := findWorkload(name)
	if w == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	r, err := runWorkload(context.Background(), w, runConfig{
		seed:     seed,
		window:   time.Duration(seconds * float64(time.Second)),
		e2e:      dir == "",
		traceDir: dir,
		setups:   setupReps,
		minOps:   minOps,
	})
	if err != nil {
		return err
	}
	printLines(os.Stdout, name, r)
	return json.NewEncoder(os.Stdout).Encode(r)
}

// runAll runs every workload in a child process of its own, so that
// caches, heap and peak RSS belong to one workload, and with tracing on
// repeats each with spans.
func runAll(seed int64, seconds float64, dir string, runs int, jsonPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := runFile{Seed: seed, Seconds: seconds}
	for i := 0; i < runs; i++ {
		rs := map[string]*result{}
		for _, w := range workloads {
			r, err := child(self, w.name, seed, seconds, "0")
			if err != nil {
				return err
			}
			if dir != "" {
				t, err := child(self, w.name, seed, seconds, dir)
				if err != nil {
					return err
				}
				r.merge(t)
				fmt.Printf("# %s spans: %s\n", w.name, filepath.Join(dir, w.name+".spans.jsonl"))
			}
			printLines(os.Stdout, w.name, r)
			rs[w.name] = r
		}
		file.Runs = append(file.Runs, rs)
	}
	if jsonPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(b, '\n'), 0o644)
}

// child runs one workload in a new process of this program and returns
// the result from the last line of its output.
func child(self, name string, seed int64, seconds float64, trace string) (*result, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s: reading result: %w", name, err)
	}
	return &r, nil
}

// printLines prints r as "workload metric value unit" lines, in the order
// of the metric tables, followed by the error rate and the op count.
func printLines(w io.Writer, workload string, r *result) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			if v, ok := r.Metrics[m.name]; ok {
				fmt.Fprintf(w, "%-12s %-36s %-14.6g %s\n", workload, m.name, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%-12s %-36s %-14.6g %s\n", workload, "error_rate", div(float64(r.Failed), float64(r.Attempted)), "failed/attempted")
	fmt.Fprintf(w, "%-12s %-36s %-14d %s\n", workload, "ops", r.Attempted, "count")
}
