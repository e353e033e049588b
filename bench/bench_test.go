package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return &bj
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command = %q, want %q", bj.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %q, want %q", bj.Paths, want)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, want the default window %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []jsonMetric
		spec []metricSpec
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.spec) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the spec", len(c.json), len(c.spec))
		}
		for i, m := range c.spec {
			j := c.json[i]
			if j.Name != m.name || j.Unit != m.unit || j.Better != m.better || (j.Bound == nil) != (m.bound == 0) || (j.Bound != nil && *j.Bound != m.bound) {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the spec %+v", i, j, m)
			}
		}
	}
}

// TestSmoke runs every workload for about a second with seed 1, untraced
// and traced, and checks the output the benchmark promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(context.Background(), w, runConfig{seed: 1, window: 800 * time.Millisecond, e2e: true, traceDir: dir, setups: 1, minOps: 1})
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, correct %v", r.Attempted, r.Failed, r.Correct)
			}
			var out bytes.Buffer
			printLines(&out, w.name, r)
			printed := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == w.name {
					printed[f[1]] = f[3]
				}
			}
			for _, m := range append(append([]jsonMetric(nil), bj.EndToEnd...), bj.PerLayer...) {
				if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s not printed with unit %s:\n%s", m.Name, m.Unit, out.String())
				}
			}
			for _, m := range bj.EndToEnd {
				if v := r.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}
			checkSpans(t, filepath.Join(dir, w.name+".spans.jsonl"))
		})
	}
}

// checkSpans checks that every op of the span file has one root span, that
// each span's parent is in the same op, and that the layer self times of
// an op sum to no more than its wall time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ops := map[int64][]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		ops[s.Op] = append(ops[s.Op], s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 {
		t.Fatal("no spans written")
	}
	for id, spans := range ops {
		children := make(map[int]int64)
		for _, s := range spans[1:] {
			if s.Parent < 0 || s.Parent >= len(spans) || s.Parent >= s.ID {
				t.Fatalf("op %d: span %+v has no parent before it", id, s)
			}
			children[s.Parent] += s.End - s.Start
		}
		root := spans[0]
		if root.Name != "op" || root.Parent != -1 {
			t.Fatalf("op %d: first span %+v is not the root", id, root)
		}
		var self int64
		for _, s := range spans[1:] {
			self += s.End - s.Start - children[s.ID]
		}
		if wall := root.End - root.Start; self > wall {
			t.Errorf("op %d: layer self times sum to %dns, more than the op's %dns", id, self, wall)
		}
	}
}
