package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"testing"

	"github.com/incompletedb/incompletedb/internal/count"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Wire-compat tests of the coordinator endpoints: every refusal —
// version-skewed registrations, checkpoint payloads that fail validation,
// unknown workers and leases, bodies that do not even decode — must be a
// 4xx with a structured {error, code} body, never a 500; and the PR-8
// legacy Tally encoding (a bare JSON number instead of a decimal string)
// must still be accepted in progress payloads.

// postRaw sends a raw body and decodes the structured error (if any).
func postRaw(t *testing.T, url, path string, body []byte) (int, ErrorBody, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var eb ErrorBody
	if resp.StatusCode/100 != 2 && buf.Len() > 0 {
		if err := json.Unmarshal(buf.Bytes(), &eb); err != nil {
			t.Fatalf("%s: non-2xx body is not a structured error: %q", path, buf.String())
		}
	}
	return resp.StatusCode, eb, buf.Bytes()
}

func postJSON(t *testing.T, url, path string, v any) (int, ErrorBody, []byte) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, path, blob)
}

// registerAndLease registers a worker over HTTP and pulls one lease.
func registerAndLease(t *testing.T, cl *cluster) (string, *Lease) {
	t.Helper()
	status, eb, body := postJSON(t, cl.srv.URL, "/cluster/register", RegisterRequest{ProtoVersion: ProtoVersion})
	if status != 200 {
		t.Fatalf("register: %d %+v", status, eb)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	status, eb, body = postJSON(t, cl.srv.URL, "/cluster/lease", LeaseRequest{WorkerID: reg.WorkerID})
	if status != 200 {
		t.Fatalf("lease: %d %+v", status, eb)
	}
	var lr LeaseResponse
	if err := json.Unmarshal(body, &lr); err != nil || lr.Lease == nil {
		t.Fatalf("lease response %q: %v", body, err)
	}
	return reg.WorkerID, lr.Lease
}

// TestClusterStructuredErrors walks every refusal path and asserts the
// status class and code — no 500s, no prose-only bodies.
func TestClusterStructuredErrors(t *testing.T) {
	database, query := testDB("naive")
	cl := startCluster(t, testConfig())
	if _, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "comp"}, nil); err != nil {
		t.Fatal(err)
	}
	wid, lease := registerAndLease(t, cl)

	mid := new(big.Int).Add(mustInt(t, lease.Range.Lo), big.NewInt(1)).String()
	progress := func(next string, mutate func(*ProgressRequest)) []byte {
		req := ProgressRequest{WorkerID: wid, LeaseID: lease.ID}
		req.Range = lease.Range
		req.Range.Next = next
		req.Range.Entries = nil
		if mutate != nil {
			mutate(&req)
		}
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	cases := []struct {
		name       string
		path       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"version skew", "/cluster/register",
			mustMarshal(t, RegisterRequest{ProtoVersion: ProtoVersion + 1}), 400, CodeVersionSkew},
		{"undecodable body", "/cluster/register",
			[]byte(`{"proto_version": `), 400, CodeBadRequest},
		{"unknown worker heartbeat", "/cluster/heartbeat",
			mustMarshal(t, HeartbeatRequest{WorkerID: "w-bogus"}), 404, CodeUnknownWorker},
		{"unknown worker lease", "/cluster/lease",
			mustMarshal(t, LeaseRequest{WorkerID: "w-bogus"}), 404, CodeUnknownWorker},
		{"unknown lease", "/cluster/progress",
			mustMarshal(t, ProgressRequest{WorkerID: wid, LeaseID: "l-bogus", Range: lease.Range}), 409, CodeUnknownLease},
		{"watermark outside range", "/cluster/progress",
			progress("99999999", nil), 400, CodeBadCheckpoint},
		{"garbled tally", "/cluster/progress",
			progress(mid, func(r *ProgressRequest) { r.Range.Count = "not-a-number" }), 400, CodeBadCheckpoint},
		{"corrupt canonical encoding", "/cluster/progress",
			progress(mid, func(r *ProgressRequest) {
				r.Range.Entries = []count.CompletionRecord{{Canonical: []uint32{987654}}}
			}), 400, CodeBadCheckpoint},
		{"done before range end", "/cluster/progress",
			progress(mid, func(r *ProgressRequest) { r.Done = true }), 400, CodeBadCheckpoint},
		{"range mismatch", "/cluster/progress",
			progress(mid, func(r *ProgressRequest) { r.Range.Hi = "17" }), 400, CodeBadCheckpoint},
	}
	for _, tc := range cases {
		status, eb, body := postRaw(t, cl.srv.URL, tc.path, tc.body)
		if status != tc.wantStatus || eb.Code != tc.wantCode {
			t.Errorf("%s: got %d code %q (%s), want %d %q", tc.name, status, eb.Code, body, tc.wantStatus, tc.wantCode)
		}
		if status >= 500 {
			t.Errorf("%s: server error %d — refusals must be structured 4xx", tc.name, status)
		}
		if eb.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// TestClusterLegacyTallyAccepted: a progress payload carrying the PR-8
// bare-number tally decodes and is accepted.
func TestClusterLegacyTallyAccepted(t *testing.T) {
	database, query := testDB("codd")
	cl := startCluster(t, testConfig())
	if _, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "val"}, nil); err != nil {
		t.Fatal(err)
	}
	wid, lease := registerAndLease(t, cl)
	mid := new(big.Int).Add(mustInt(t, lease.Range.Lo), big.NewInt(2))
	legacy := fmt.Sprintf(
		`{"worker_id":%q,"lease_id":%q,"range":{"lo":%q,"next":%q,"hi":%q,"count":1}}`,
		wid, lease.ID, lease.Range.Lo, mid.String(), lease.Range.Hi)
	status, eb, _ := postRaw(t, cl.srv.URL, "/cluster/progress", []byte(legacy))
	if status != 200 {
		t.Fatalf("legacy bare-number tally refused: %d %+v", status, eb)
	}
	// And the string form of the same payload is equivalent.
	modern := fmt.Sprintf(
		`{"worker_id":%q,"lease_id":%q,"range":{"lo":%q,"next":%q,"hi":%q,"count":"2"}}`,
		wid, lease.ID, lease.Range.Lo, new(big.Int).Add(mid, big.NewInt(1)).String(), lease.Range.Hi)
	if status, eb, _ := postRaw(t, cl.srv.URL, "/cluster/progress", []byte(modern)); status != 200 {
		t.Fatalf("string tally refused: %d %+v", status, eb)
	}
}

// TestClusterTallyAboveVisitedRejected: a partial cannot have counted
// more satisfying valuations than its watermark covers, so a tally above
// Next − Lo — including one no machine word holds — is a structured
// bad_checkpoint, while a tally at the bound is accepted.
func TestClusterTallyAboveVisitedRejected(t *testing.T) {
	database, query := testDB("codd")
	cl := startCluster(t, testConfig())
	if _, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "val"}, nil); err != nil {
		t.Fatal(err)
	}
	wid, lease := registerAndLease(t, cl)
	next := new(big.Int).Add(mustInt(t, lease.Range.Lo), big.NewInt(2)).String() // a 2-valuation prefix
	progress := func(tally count.Tally) (int, ErrorBody) {
		req := ProgressRequest{WorkerID: wid, LeaseID: lease.ID, Range: lease.Range}
		req.Range.Next = next
		req.Range.Count = tally
		status, eb, _ := postJSON(t, cl.srv.URL, "/cluster/progress", req)
		return status, eb
	}
	two128 := new(big.Int).Lsh(big.NewInt(1), 128).String()
	for _, tally := range []count.Tally{"3", count.Tally(two128)} {
		if status, eb := progress(tally); status != 400 || eb.Code != CodeBadCheckpoint {
			t.Errorf("tally %s over 2 visited: got %d %+v, want 400 %s", tally, status, eb, CodeBadCheckpoint)
		}
	}
	if status, eb := progress("2"); status != 200 {
		t.Fatalf("tally at the bound refused: %d %+v", status, eb)
	}
}

// TestClusterUnknownFieldsTolerated: payloads from a newer (but
// protocol-compatible) build carrying extra fields are not refused.
func TestClusterUnknownFieldsTolerated(t *testing.T) {
	cl := startCluster(t, testConfig())
	body := []byte(fmt.Sprintf(`{"proto_version":%d,"name":"future","shiny_new_field":true}`, ProtoVersion))
	status, eb, _ := postRaw(t, cl.srv.URL, "/cluster/register", body)
	if status != 200 {
		t.Fatalf("unknown field refused: %d %+v", status, eb)
	}
}

// TestLegacyLeaseHatchFieldsIgnored: a lease from an older coordinator
// may still carry the retired engine escape hatches. The worker decodes
// it and sweeps the range to exactly the partial of the same lease
// without them — the engine variant never changes a tally or a
// completion encoding.
func TestLegacyLeaseHatchFieldsIgnored(t *testing.T) {
	database, query := testDB("naive")
	cl := startCluster(t, testConfig())
	if _, err := cl.coord.StartJob(JobSpec{Database: database, Query: query, Kind: "comp"}, nil); err != nil {
		t.Fatal(err)
	}
	_, lease := registerAndLease(t, cl)
	plain := mustMarshal(t, LeaseResponse{Lease: lease})
	legacy := bytes.Replace(plain, []byte(`"kind":`), []byte(`"disable_bitsets":true,"syntactic_order":true,"kind":`), 1)
	if bytes.Equal(legacy, plain) {
		t.Fatal("lease JSON has no kind field to splice the legacy fields before")
	}
	sweepOf := func(body []byte) string {
		t.Helper()
		var lr LeaseResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&lr); err != nil || lr.Lease == nil {
			t.Fatalf("worker-side decode of %s: %v", body, err)
		}
		w := &worker{engines: make(map[string]*sweep.Engine)}
		eng, err := w.engineFor(lr.Lease)
		if err != nil {
			t.Fatal(err)
		}
		final, err := count.SweepShardRange(context.Background(), eng, lr.Lease.Range, lr.Lease.Stride,
			func(count.ShardCheckpoint) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return string(mustMarshal(t, final))
	}
	if got, want := sweepOf(legacy), sweepOf(plain); got != want {
		t.Fatalf("legacy lease swept to %s, plain lease to %s", got, want)
	}
}

func mustInt(t *testing.T, s string) *big.Int {
	t.Helper()
	v, ok := new(big.Int).SetString(s, 10)
	if !ok {
		t.Fatalf("not a number: %q", s)
	}
	return v
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
