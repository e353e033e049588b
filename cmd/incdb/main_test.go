package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/server"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	io.Copy(&buf, r)
	return buf.String(), runErr
}

func writeTestDB(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "test.idb")
	content := "# test database\nuniform a b c\nS(a, b)\nS(?1, a)\nS(a, ?2)\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdClassify(t *testing.T) {
	out, err := capture(t, func() error { return cmdClassify([]string{"-q", "R(x, x)"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"#Val(q)", "#P-complete", "Theorem 3.6", "FP"} {
		if !strings.Contains(out, frag) {
			t.Errorf("classify output missing %q:\n%s", frag, out)
		}
	}
	if err := cmdClassify([]string{}); err == nil {
		t.Error("missing -q accepted")
	}
	if err := cmdClassify([]string{"-q", "R(x) | S(x)"}); err == nil {
		t.Error("non-BCQ accepted")
	}
}

func TestCmdCount(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, func() error {
		return cmdCount(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-kind", "val"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uniform variant of Figure 1 over {a,b,c}: 9 valuations; satisfying:
	// ν1=a (3) + ν2=a (3) − both (1) = 5.
	if !strings.Contains(out, "= 5") {
		t.Errorf("count output: %s", out)
	}
	out, err = capture(t, func() error {
		return cmdCount(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-kind", "comp"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#Comp") {
		t.Errorf("comp output: %s", out)
	}
	out, err = capture(t, func() error {
		return cmdCount(context.Background(), []string{"-db", db, "-kind", "all-comp"})
	})
	if err != nil || !strings.Contains(out, "#Comp(TRUE)") {
		t.Errorf("all-comp output: %s (err %v)", out, err)
	}
	if err := cmdCount(context.Background(), []string{"-db", db, "-q", "S(x,x)", "-kind", "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
	if err := cmdCount(context.Background(), []string{"-q", "S(x,x)"}); err == nil {
		t.Error("missing -db accepted")
	}
	if err := cmdCount(context.Background(), []string{"-db", "/nonexistent/xx.idb", "-q", "S(x,x)"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdCountWorkers(t *testing.T) {
	db := writeTestDB(t)
	// Serial and parallel sweeps must print the same count. The table is
	// Codd, so force brute force off the exact path with a -max... the
	// dispatcher still picks an exact method; what matters here is that
	// -workers parses and threads through without changing the result.
	for _, w := range []string{"1", "4"} {
		out, err := capture(t, func() error {
			return cmdCount(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-kind", "val", "-workers", w})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "= 5") {
			t.Errorf("workers=%s output: %s", w, out)
		}
	}
	if err := cmdCount(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-workers", "-2"}); err == nil {
		t.Error("negative -workers accepted")
	}
}

func TestCmdExplain(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, func() error {
		return cmdExplain(context.Background(), []string{"-db", db, "-q", "S(x, x)"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The test database is a (uniform) Codd table: Theorem 3.6 is
	// rejected for the repeated variable, Theorem 3.7 fires, and both
	// decisions are rendered along with the Table 1 verdict.
	for _, frag := range []string{
		"plan #Val(S(x, x))",
		"exact/theorem-3.7",
		"table 1:",
		"Theorem 3.6 (single-occurrence) [Theorem 3.6]: rejected",
		"accepted",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("explain output missing %q:\n%s", frag, out)
		}
	}

	// A self-join falls outside the sjfBCQ theorems and lands on cylinder
	// inclusion–exclusion.
	out, err = capture(t, func() error {
		return cmdExplain(context.Background(), []string{"-db", db, "-q", "S(x, y) ∧ S(y, z)"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"exact/cylinder-inclusion-exclusion",
		"need a valid self-join-free BCQ",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("self-join explain output missing %q:\n%s", frag, out)
		}
	}

	// -kind comp plans the completion problem.
	out, err = capture(t, func() error {
		return cmdExplain(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-kind", "comp"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan #Comp(S(x, x))") || !strings.Contains(out, "Theorem 4.6") {
		t.Errorf("comp explain output:\n%s", out)
	}

	// Planning never executes: a guard-sized instance still explains, and
	// the sweep cost is flagged.
	out, err = capture(t, func() error {
		return cmdExplain(context.Background(), []string{"-db", db, "-q", "S(x, y) ∧ S(y, z) ∧ x ≠ z", "-max", "1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "EXCEEDS the guard") {
		t.Errorf("guard excess not rendered:\n%s", out)
	}

	if err := cmdExplain(context.Background(), []string{"-db", db}); err == nil {
		t.Error("missing -q accepted")
	}
	if err := cmdExplain(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-kind", "bogus"}); err == nil {
		t.Error("bogus kind accepted")
	}
}

// TestCmdExplainJSON: -json emits the serve API's explain response, plan
// included, with the rendered text identical to the text mode's output.
func TestCmdExplainJSON(t *testing.T) {
	db := writeTestDB(t)
	text, err := capture(t, func() error {
		return cmdExplain(context.Background(), []string{"-db", db, "-q", "S(x, x)"})
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return cmdExplain(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if resp.Op != server.OpExplain || resp.Plan == nil || resp.Fingerprint == "" {
		t.Fatalf("explain -json: %+v", resp)
	}
	if resp.Plan.Text != text {
		t.Errorf("JSON plan text differs from text mode:\n--- json ---\n%s--- text ---\n%s", resp.Plan.Text, text)
	}
	if resp.Method != resp.Plan.Method || resp.Method == "" {
		t.Errorf("method mismatch: %q vs %q", resp.Method, resp.Plan.Method)
	}

	// -max reaches the planner identically in both modes: the JSON path's
	// embedded server must not clamp the guard the sweep is costed
	// against.
	args := []string{"-db", db, "-q", "S(x, y) ∧ S(y, z) ∧ x ≠ z", "-max", "1"}
	text, err = capture(t, func() error { return cmdExplain(context.Background(), args) })
	if err != nil {
		t.Fatal(err)
	}
	out, err = capture(t, func() error { return cmdExplain(context.Background(), append(args, "-json")) })
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if resp.Plan.Text != text || !strings.Contains(text, "EXCEEDS the guard of 1") {
		t.Errorf("-max 1 renders differently in JSON mode:\n--- json ---\n%s--- text ---\n%s", resp.Plan.Text, text)
	}
}

// TestCmdCountTimeout: a tiny -timeout aborts a large guarded sweep
// cleanly — a prompt deadline error instead of minutes of enumeration.
func TestCmdCountTimeout(t *testing.T) {
	// 15 nulls × domain 4 = 2^30 ≈ 1.07e9 valuations, all relevant to the
	// query. The inequality keeps the query off every fast path (not a
	// BCQ/UCQ: no theorems, no factorization, no cylinder route), so the
	// planner must sweep. The facts form a star R(?i, ?15): every witness
	// holds ?15, the sweep's last digit, so no witness block lets the
	// sweep pass over more than one valuation at a time.
	dir := t.TempDir()
	path := filepath.Join(dir, "big.idb")
	var sb strings.Builder
	sb.WriteString("uniform a b c d\n")
	for i := 1; i < 15; i++ {
		fmt.Fprintf(&sb, "R(?%d, ?15)\n", i)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-db", path, "-q", "R(x, y) ∧ x ≠ y", "-kind", "val",
		"-max", "2000000000", "-workers", "2", "-timeout", "100ms",
	}
	start := time.Now()
	err := cmdCount(context.Background(), args)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a 100ms timeout completed a ~10^9-valuation sweep?")
	}
	if !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("expected a deadline error, got: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("timeout did not abort promptly: took %v", elapsed)
	}
}

// TestCmdEstimateJSON: estimate -json emits the serve API's estimate
// response, sampling diagnostics included.
func TestCmdEstimateJSON(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, func() error {
		return cmdEstimate(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-eps", "0.2", "-delta", "0.2", "-seed", "7", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if resp.Op != server.OpEstimate || resp.Count == "" || resp.Method == "" {
		t.Errorf("estimate -json: %+v", resp)
	}
	if resp.Estimate == nil || resp.Estimate.Samples == 0 || resp.Estimate.Cylinders == 0 ||
		resp.Estimate.TotalWeight == "" || resp.Estimate.Seed != 7 {
		t.Errorf("estimate -json lacks sampling diagnostics: %+v", resp.Estimate)
	}
}

func TestCmdEstimate(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, func() error {
		return cmdEstimate(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-eps", "0.1", "-delta", "0.1", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Karp–Luby") {
		t.Errorf("estimate output: %s", out)
	}
	if err := cmdEstimate(context.Background(), []string{"-db", db}); err == nil {
		t.Error("missing -q accepted")
	}
}

// TestCmdCountJSON: -json emits the serve API's Response schema, for all
// three kinds.
func TestCmdCountJSON(t *testing.T) {
	db := writeTestDB(t)
	out, err := capture(t, func() error {
		return cmdCount(context.Background(), []string{"-db", db, "-q", "S(x, x)", "-kind", "val", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if resp.Op != server.OpCount || resp.Count != "5" || resp.Method == "" {
		t.Errorf("count -json: %+v", resp)
	}
	if resp.Fingerprint == "" {
		t.Errorf("count -json lacks a fingerprint: %+v", resp)
	}

	out, err = capture(t, func() error {
		return cmdCount(context.Background(), []string{"-db", db, "-kind", "all-comp", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if resp.Kind != server.KindComp || resp.Query != "TRUE" || resp.Count == "" {
		t.Errorf("all-comp -json: %+v", resp)
	}

	// A parse error still exits non-zero in JSON mode.
	if err := cmdCount(context.Background(), []string{"-db", db, "-q", "(", "-json"}); err == nil {
		t.Error("bad query accepted in -json mode")
	}
}

// TestCmdClassifyJSON: -json emits the eight-variant classification.
func TestCmdClassifyJSON(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdClassify([]string{"-q", "R(x, x)", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad JSON %q: %v", out, err)
	}
	if resp.Op != server.OpClassify || len(resp.Classification) != 8 {
		t.Errorf("classify -json: %+v", resp)
	}
	if err := cmdClassify([]string{"-q", "R(x) | S(x)", "-json"}); err == nil {
		t.Error("non-BCQ accepted in -json mode")
	}
}

// TestCmdServe: the serve command binds, answers a request, and shuts
// down when its context is cancelled (the Ctrl-C path).
func TestCmdServe(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(ctx, []string{"-addr", "127.0.0.1:0", "-cache", "16"})
	}()
	// The listener address is ephemeral; this test only proves clean
	// startup and signal-driven shutdown.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve did not shut down cleanly: %v", err)
	}
}

// TestCmdMutate drives a live server through the mutate subcommand:
// load a database, add/extend/remove in command-line order, show the
// result, and count through the live session (empty database field).
func TestCmdMutate(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx, ln) }()
	t.Cleanup(func() { cancel(); <-done })
	addr := ln.Addr().String()

	dir := t.TempDir()
	path := filepath.Join(dir, "live.idb")
	if err := os.WriteFile(path, []byte("dom ?1 a b\nR(?1, a)\nS(b)\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error {
		return cmdMutate(context.Background(), []string{
			"-addr", addr,
			"-load", path,
			"-extend", "?7 a b c",
			"-add", "R(?7, b)",
			"-remove", "S(b)",
			"-show",
		})
	})
	if err != nil {
		t.Fatalf("mutate failed: %v\n%s", err, out)
	}
	for _, frag := range []string{"loaded", "applied 1", "R(?7, b)", "dom ?7 a b c"} {
		if !strings.Contains(out, frag) {
			t.Errorf("mutate output missing %q:\n%s", frag, out)
		}
	}
	// "S(b)" appears once, in the remove echo line — not in the shown
	// database.
	if strings.Count(out, "S(b)") != 1 {
		t.Errorf("removed fact still shown:\n%s", out)
	}

	// The live session answers count traffic over the mutated database.
	resp := srv.Execute(server.Request{Op: server.OpCount, Query: "R(x, y)", Kind: server.KindVal})
	if resp.Error != "" {
		t.Fatalf("live count: %s", resp.Error)
	}
	// R(?1, a) with ?1 over {a,b} and R(?7, b) with ?7 over {a,b,c}:
	// every one of the 2·3 valuations satisfies R(x, y).
	if resp.Count != "6" {
		t.Errorf("live count = %s, want 6", resp.Count)
	}

	// Nothing to do is an error.
	if err := cmdMutate(context.Background(), []string{"-addr", addr}); err == nil {
		t.Error("mutate with no operations accepted")
	}
}

// TestCmdServePreload proves serve -db loads the live session before
// accepting traffic.
func TestCmdServePreload(t *testing.T) {
	path := writeTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(ctx, []string{"-addr", "127.0.0.1:0", "-db", path})
	}()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve -db did not start and shut down cleanly: %v", err)
	}
	if err := cmdServe(context.Background(), []string{"-addr", "127.0.0.1:0", "-db", filepath.Join(t.TempDir(), "missing.idb")}); err == nil {
		t.Error("serve -db with a missing file accepted")
	}
}

func TestParseProfile(t *testing.T) {
	p, err := parseProfile("count=4, classify=2,jobs=1,")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"count": 4, "classify": 2, "jobs": 1}
	if len(p) != len(want) {
		t.Fatalf("parseProfile = %v, want %v", p, want)
	}
	for op, w := range want {
		if p[op] != w {
			t.Errorf("weight[%s] = %d, want %d", op, p[op], w)
		}
	}
	for _, bad := range []string{"count", "count=", "count=x", "count=-1"} {
		if _, err := parseProfile(bad); err == nil {
			t.Errorf("parseProfile(%q) accepted", bad)
		}
	}
}

// TestCmdLoadgenCheck: -check turns a run against a dead address into a
// command error instead of a report full of failures.
func TestCmdLoadgenCheck(t *testing.T) {
	if err := cmdLoadgen(context.Background(), []string{
		"-addr", "http://127.0.0.1:1", "-duration", "100ms", "-warmup", "-1ms", "-check",
	}); err == nil {
		t.Error("loadgen -check against a dead server succeeded")
	}
	if err := cmdLoadgen(context.Background(), []string{"-profile", "bogus"}); err == nil {
		t.Error("malformed -profile accepted")
	}
}

func TestCmdExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	out, err := capture(t, func() error {
		return cmdExperiments([]string{"-quick", "-seed", "5"})
	})
	if err != nil {
		t.Fatalf("experiments failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "experiments passed") || strings.Contains(out, "[FAIL]") {
		t.Errorf("experiments output:\n%s", out)
	}
}
