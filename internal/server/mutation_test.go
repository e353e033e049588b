package server

import (
	"math/big"
	"net/http"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
)

// TestLiveSessionMutationFlow drives the live mutable session end to
// end over HTTP: load a database, count against it with empty database
// fields, interleave fact and domain writes, and check every recount
// matches a from-scratch evaluation of the mutated database.
func TestLiveSessionMutationFlow(t *testing.T) {
	srv, base := startServer(t, Config{})

	// Reads against an unloaded live session are a client error.
	var eb struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", base+"/v1/count", Request{Query: "R(x, y)"}, &eb); code != http.StatusBadRequest {
		t.Fatalf("count with no database and no live session: status %d, want 400", code)
	}
	if code := doJSON(t, "GET", base+"/v1/db", nil, &eb); code != http.StatusNotFound {
		t.Fatalf("GET /v1/db with no live session: status %d, want 404", code)
	}

	// Load: two nulls over {a, b}, three facts.
	dbText := "dom ?1 a b\ndom ?2 a b\nR(?1, a)\nT(?2, b)\nS(b)\n"
	var state DatabaseState
	if code := doJSON(t, "POST", base+"/v1/db", Request{Database: dbText}, &state); code != http.StatusOK {
		t.Fatalf("POST /v1/db: status %d", code)
	}
	if state.Facts != 3 || state.Nulls != 2 {
		t.Fatalf("loaded state: %+v", state)
	}

	count := func(q string) *big.Int {
		t.Helper()
		var resp Response
		if code := doJSON(t, "POST", base+"/v1/count", Request{Query: q, Kind: KindVal}, &resp); code != http.StatusOK {
			t.Fatalf("count %q: status %d (%+v)", q, code, resp)
		}
		n, ok := new(big.Int).SetString(resp.Count, 10)
		if !ok {
			t.Fatalf("count %q: bad count %q", q, resp.Count)
		}
		return n
	}
	// reference recomputes the same count on an inline copy of the live
	// database, through a second server so no cache is shared.
	_, refBase := startServer(t, Config{})
	reference := func(q string) *big.Int {
		t.Helper()
		var st DatabaseState
		if code := doJSON(t, "GET", base+"/v1/db", nil, &st); code != http.StatusOK {
			t.Fatalf("GET /v1/db: status %d", code)
		}
		var resp Response
		if code := doJSON(t, "POST", refBase+"/v1/count", Request{Database: st.Database, Query: q, Kind: KindVal}, &resp); code != http.StatusOK {
			t.Fatalf("reference count %q: status %d (%+v)", q, code, resp)
		}
		n, ok := new(big.Int).SetString(resp.Count, 10)
		if !ok {
			t.Fatalf("reference count %q: bad count %q", q, resp.Count)
		}
		return n
	}
	check := func(q string) {
		t.Helper()
		if got, want := count(q), reference(q); got.Cmp(want) != 0 {
			t.Fatalf("live count(%q) = %v, reference %v", q, got, want)
		}
	}

	check("R(x, y) ∧ S(y)")

	// Add facts; duplicates are no-ops and don't count as applied.
	var mut MutationResponse
	if code := doJSON(t, "POST", base+"/v1/facts", MutationRequest{Facts: []string{"R(b, b)", "S(?2)", "R(b, b)"}}, &mut); code != http.StatusOK {
		t.Fatalf("POST /v1/facts: status %d", code)
	}
	if mut.Applied != 2 || mut.Facts != 5 {
		t.Fatalf("add response: %+v", mut)
	}
	check("R(x, y) ∧ S(y)")

	// Remove one; removing it again applies nothing.
	if code := doJSON(t, "DELETE", base+"/v1/facts", MutationRequest{Facts: []string{"R(?1, a)", "R(?1, a)"}}, &mut); code != http.StatusOK {
		t.Fatalf("DELETE /v1/facts: status %d", code)
	}
	if mut.Applied != 1 || mut.Facts != 4 {
		t.Fatalf("remove response: %+v", mut)
	}
	check("R(x, y) ∧ S(y)")

	// Extend a null's domain; the epoch advances.
	before := mut.Epoch
	if code := doJSON(t, "POST", base+"/v1/domain", MutationRequest{Null: "?2", Values: []string{"c"}}, &mut); code != http.StatusOK {
		t.Fatalf("POST /v1/domain: status %d", code)
	}
	if mut.Applied != 1 || mut.Epoch <= before {
		t.Fatalf("domain response: %+v (epoch before %d)", mut, before)
	}
	check("S(x)")

	// Malformed writes mutate nothing: the second fact fails to parse,
	// so the first must not have been applied.
	factsBefore := mut.Facts
	if code := doJSON(t, "POST", base+"/v1/facts", MutationRequest{Facts: []string{"T(a)", "not a fact"}}, &eb); code != http.StatusBadRequest {
		t.Fatalf("malformed add: status %d, want 400", code)
	}
	var st DatabaseState
	doJSON(t, "GET", base+"/v1/db", nil, &st)
	if st.Facts != factsBefore {
		t.Fatalf("malformed add mutated the database: %d facts, want %d", st.Facts, factsBefore)
	}
	if code := doJSON(t, "POST", base+"/v1/domain", MutationRequest{Values: []string{"z"}}, &eb); code != http.StatusBadRequest {
		t.Fatalf("uniform extension on non-uniform db: status %d, want 400", code)
	}

	// Stats surface the delta path and the live session.
	stats := srv.Stats()
	if stats.Mutations == 0 {
		t.Fatalf("stats did not record mutations: %+v", stats)
	}
	if stats.Live == nil || stats.Live.Epoch != st.Epoch || stats.Live.Facts != st.Facts {
		t.Fatalf("stats live block %+v does not match GET /v1/db %+v", stats.Live, st)
	}
}

// TestLiveWriteCannotPoisonResultCache: a written fact whose relation
// name holds a newline is rejected. Were it accepted, a live database
// holding the one fact `uniform "a"` + "\n" + `R(x)` would share its
// canonical form with the inline database "uniform a\nR(x)", and the
// live session's cached count would answer the inline request.
func TestLiveWriteCannotPoisonResultCache(t *testing.T) {
	_, base := startServer(t, Config{})
	var state DatabaseState
	if code := doJSON(t, "POST", base+"/v1/db", Request{Database: "Z(z)\n"}, &state); code != http.StatusOK {
		t.Fatalf("POST /v1/db: status %d", code)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, "POST", base+"/v1/facts", MutationRequest{Facts: []string{"uniform \"a\"\nR(x)"}}, &eb); code != http.StatusBadRequest {
		t.Errorf("POST /v1/facts with a newline in the relation name: status %d, want 400", code)
	}
	var mut MutationResponse
	if code := doJSON(t, "DELETE", base+"/v1/facts", MutationRequest{Facts: []string{"Z(z)"}}, &mut); code != http.StatusOK {
		t.Fatalf("DELETE /v1/facts: status %d", code)
	}
	var live Response
	if code := doJSON(t, "POST", base+"/v1/count", Request{Query: "R(y)", Kind: KindVal}, &live); code != http.StatusOK {
		t.Fatalf("live count: status %d", code)
	}
	var inline Response
	if code := doJSON(t, "POST", base+"/v1/count", Request{Database: "uniform a\nR(x)\n", Query: "R(y)", Kind: KindVal}, &inline); code != http.StatusOK {
		t.Fatalf("inline count: status %d", code)
	}
	if inline.Count != "1" || inline.Cached {
		t.Fatalf("inline count of R(y) over {R(x)} = %s (cached %v), want a fresh 1", inline.Count, inline.Cached)
	}
}

// TestLiveSessionUniformDomain exercises the uniform-domain branch of
// POST /v1/domain.
func TestLiveSessionUniformDomain(t *testing.T) {
	_, base := startServer(t, Config{})
	var state DatabaseState
	if code := doJSON(t, "POST", base+"/v1/db", Request{Database: "uniform a b\nR(?1, a)\n"}, &state); code != http.StatusOK {
		t.Fatalf("POST /v1/db: status %d", code)
	}
	var resp Response
	if code := doJSON(t, "POST", base+"/v1/count", Request{Query: "R(x, x)", Kind: KindVal}, &resp); code != http.StatusOK {
		t.Fatalf("count: status %d", code)
	}
	if resp.Count != "1" {
		t.Fatalf("count over uniform {a,b}: %s, want 1", resp.Count)
	}
	var mut MutationResponse
	if code := doJSON(t, "POST", base+"/v1/domain", MutationRequest{Values: []string{"aa"}}, &mut); code != http.StatusOK {
		t.Fatalf("POST /v1/domain: status %d", code)
	}
	if mut.Applied != 1 {
		t.Fatalf("domain response: %+v", mut)
	}
	if code := doJSON(t, "POST", base+"/v1/count", Request{Query: "R(x, x)", Kind: KindVal}, &resp); code != http.StatusOK {
		t.Fatalf("recount: status %d", code)
	}
	if resp.Count != "1" {
		t.Fatalf("recount over uniform {a,b,aa}: %s, want 1", resp.Count)
	}
	// TRUE counts every valuation: the domain extension is visible.
	if code := doJSON(t, "POST", base+"/v1/count", Request{Query: "TRUE", Kind: KindVal}, &resp); code != http.StatusOK {
		t.Fatalf("count TRUE: status %d", code)
	}
	if resp.Count != "3" {
		t.Fatalf("total valuations after extension: %s, want 3", resp.Count)
	}
}

// TestLoadDatabaseProgrammatic pins the embedding path incdb serve -db
// uses: LoadDatabase installs the session and Live exposes it.
func TestLoadDatabaseProgrammatic(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	db := core.NewDatabase()
	if err := db.SetDomain(1, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	db.MustAddFact("R", core.Null(1), core.Const("a"))
	if err := srv.LoadDatabase(db); err != nil {
		t.Fatal(err)
	}
	if srv.Live() == nil {
		t.Fatal("Live() is nil after LoadDatabase")
	}
	resp := srv.Execute(Request{Op: OpCount, Query: "R(x, y)", Kind: KindVal})
	if resp.Error != "" {
		t.Fatalf("count on live session: %s", resp.Error)
	}
	if resp.Count != "2" {
		t.Fatalf("count = %s, want 2", resp.Count)
	}
}
