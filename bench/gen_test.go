package main

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
)

// TestGeneratedDatabasesDistinct guards against inputs that look fresh but
// canonicalize to the same database, which would turn intended cache
// misses into hits: 1000 databases each of serve-cold, sweep-val and
// sweep-comp, and serve-cached's pool, are pairwise distinct up to null
// renaming.
func TestGeneratedDatabasesDistinct(t *testing.T) {
	seen := map[string]string{}
	add := func(where, text string) {
		db, err := core.ParseDatabaseString(text)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		fp := fingerprint.Database(db)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s canonicalizes like %s", where, prev)
		}
		seen[fp] = where
	}
	for _, name := range []string{"serve-cold", "sweep-val", "sweep-comp"} {
		st, err := findWorkload(name).stream(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			o := st.next()
			add(fmt.Sprintf("%s op %d", name, o.seq), o.req.Database)
		}
	}
	st, err := findWorkload("serve-cached").stream(1)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range st.warm {
		if o.req.Kind == "val" {
			add(fmt.Sprintf("serve-cached pool %d", i), o.req.Database)
		}
	}
	if n := len(st.warm); n != 512 {
		t.Errorf("serve-cached warms %d fingerprints, want 512", n)
	}
}

// streamBytes renders the first n ops of w's stream for seed, after its
// warm ops and live database.
func streamBytes(t *testing.T, w *workload, seed int64, n int) []byte {
	t.Helper()
	st, err := w.stream(seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%q\n", st.live)
	for _, o := range st.warm {
		fmt.Fprintf(&b, "%+v\n", o)
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%+v\n", st.next())
	}
	return b.Bytes()
}

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streamBytes(t, w, 7, 200), streamBytes(t, w, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if c := streamBytes(t, w, 8, 200); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}
