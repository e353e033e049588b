package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/cq"
)

const explainTestDB = "uniform a b\nR(?1, ?1)\nR(?2, ?3)\nS(?4, ?4)\n"

// TestExplainEndpoint: POST /v1/explain compiles and renders the plan
// without executing anything, and the rendered text is byte-identical to
// what the Go API renders for the same input — the cross-layer EXPLAIN
// identity.
func TestExplainEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	var resp Response
	status := doJSON(t, http.MethodPost, base+"/v1/explain", Request{
		Database: explainTestDB,
		Query:    "R(x, x) ∧ S(y, y)",
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %+v", status, resp)
	}
	if resp.Op != OpExplain || resp.Kind != KindVal || resp.Plan == nil {
		t.Fatalf("explain response: %+v", resp)
	}
	if resp.Fingerprint == "" {
		t.Error("explain response lacks a fingerprint")
	}
	if resp.Plan.Root.Op != "factor/independent-product" || len(resp.Plan.Root.Children) != 2 {
		t.Errorf("plan root: %+v", resp.Plan.Root)
	}

	// The Go API must render the same plan for the same input.
	db, err := core.ParseDatabaseString(explainTestDB)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseBCQ("R(x, x) ∧ S(y, y)")
	p, err := count.Explain(db, q, classify.Valuations, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Plan.Text != p.Render() {
		t.Errorf("HTTP and Go API render different plans:\n--- http ---\n%s--- go ---\n%s", resp.Plan.Text, p.Render())
	}
	if resp.Method != p.Method() {
		t.Errorf("method mismatch: %q vs %q", resp.Method, p.Method())
	}

	// kind=comp plans the completion problem.
	status = doJSON(t, http.MethodPost, base+"/v1/explain", Request{
		Database: explainTestDB, Query: "R(x, x)", Kind: KindComp,
	}, &resp)
	if status != http.StatusOK || resp.Kind != KindComp {
		t.Fatalf("comp explain: status %d, %+v", status, resp)
	}
	if !strings.Contains(resp.Plan.Text, "#Comp") {
		t.Errorf("comp plan text:\n%s", resp.Plan.Text)
	}

	// Parse errors are the client's fault.
	status = doJSON(t, http.MethodPost, base+"/v1/explain", Request{Database: explainTestDB, Query: "("}, &resp)
	if status != http.StatusBadRequest {
		t.Errorf("bad query: status %d", status)
	}
}

// TestCountResponsesCarryPlans: every count response — synchronous,
// cached, estimate, and job results — carries the plan that produced it,
// and the cached copy's plan equals a fresh explain of the same input.
func TestCountResponsesCarryPlans(t *testing.T) {
	_, base := startServer(t, Config{})
	req := Request{Database: explainTestDB, Query: "R(x, x) ∧ S(y, y)"}

	var counted Response
	if status := doJSON(t, http.MethodPost, base+"/v1/count", req, &counted); status != http.StatusOK {
		t.Fatalf("count status %d: %+v", status, counted)
	}
	if counted.Plan == nil || counted.Plan.Text == "" {
		t.Fatalf("count response lacks a plan: %+v", counted)
	}
	if counted.Method != counted.Plan.Method {
		t.Errorf("count method %q differs from plan method %q", counted.Method, counted.Plan.Method)
	}

	// The cached round trip keeps the plan.
	var cached Response
	if status := doJSON(t, http.MethodPost, base+"/v1/count", req, &cached); status != http.StatusOK {
		t.Fatal("cached count failed")
	}
	if !cached.Cached || cached.Plan == nil || cached.Plan.Text != counted.Plan.Text {
		t.Errorf("cached response plan mismatch: cached=%v", cached.Cached)
	}

	// The explain endpoint renders the same plan the count executed, for
	// the same fingerprint.
	var explained Response
	if status := doJSON(t, http.MethodPost, base+"/v1/explain", req, &explained); status != http.StatusOK {
		t.Fatal("explain failed")
	}
	if explained.Fingerprint != counted.Fingerprint {
		t.Errorf("fingerprints differ: %q vs %q", explained.Fingerprint, counted.Fingerprint)
	}
	if explained.Plan.Text != counted.Plan.Text {
		t.Errorf("explain and count render different plans:\n--- explain ---\n%s--- count ---\n%s",
			explained.Plan.Text, counted.Plan.Text)
	}

	// Estimates carry their sampling plan.
	var est Response
	if status := doJSON(t, http.MethodPost, base+"/v1/estimate", Request{
		Database: explainTestDB, Query: "R(x, x)", Eps: 0.2, Delta: 0.2, Seed: 7,
	}, &est); status != http.StatusOK {
		t.Fatalf("estimate failed: %+v", est)
	}
	if est.Plan == nil || est.Plan.Root.Op != "approx/karp-luby" {
		t.Errorf("estimate plan: %+v", est.Plan)
	}

	// Forced-brute jobs carry the bare sweep plan.
	var job Job
	if status := doJSON(t, http.MethodPost, base+"/v1/jobs", Request{
		Database: explainTestDB, Query: "R(x, x)", ForceBrute: true,
	}, &job); status != http.StatusAccepted {
		t.Fatalf("job create failed: %+v", job)
	}
	job = pollJobDone(t, base, job.ID, 30*time.Second)
	if job.Status != JobDone || job.Result == nil {
		t.Fatalf("job did not finish: %+v", job)
	}
	if job.Result.Plan == nil || job.Result.Plan.Root.Op != "brute-force" || job.Result.Method != "brute-force" {
		t.Errorf("forced job plan: %+v", job.Result.Plan)
	}
}
