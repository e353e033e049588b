package solver

import (
	"context"
	"errors"
	"testing"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
)

// TestCachedTextServesPreparedTexts pins the text memo: CachedText
// answers only for a text PrepareText has prepared and whose result is
// cached, each text with its own result; an isomorphic but different
// text misses until it is prepared itself.
func TestCachedTextServesPreparedTexts(t *testing.T) {
	s := NewSolver(WithWorkers(1))
	q := cq.MustParseBCQ("R(x, x)")
	ring4 := "uniform a b\nR(?1, ?2)\nR(?2, ?3)\nR(?3, ?4)\nR(?4, ?1)\n"
	renamed := "uniform a b\nR(?7, ?2)\nR(?2, ?3)\nR(?3, ?4)\nR(?4, ?7)\n"
	path3 := "uniform a b\nR(?1, ?2)\nR(?2, ?3)\nR(?3, ?4)\nR(?4, ?4)\n"

	count := func(text, want string) {
		t.Helper()
		if _, ok := s.CachedText(text, q, fingerprint.KindVal); ok {
			t.Fatalf("CachedText hit before %q was counted", text)
		}
		pdb, err := s.PrepareText(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pdb.Count(context.Background(), q, classify.Valuations)
		if err != nil {
			t.Fatal(err)
		}
		hit, ok := s.CachedText(text, q, fingerprint.KindVal)
		if !ok || !hit.Stats.CacheHit || hit.Count.String() != want || hit.Fingerprint != res.Fingerprint {
			t.Fatalf("CachedText(%q) = %+v, %v; want a hit with count %s and fingerprint %s", text, hit, ok, want, res.Fingerprint)
		}
		if _, ok := s.CachedText(text, q, fingerprint.KindComp); ok {
			t.Fatalf("CachedText(%q) hit a kind never counted", text)
		}
	}
	count(ring4, "14")
	count(path3, "16")

	if _, ok := s.CachedText(renamed, q, fingerprint.KindVal); ok {
		t.Fatal("CachedText hit a text that was never prepared")
	}
	pdb, err := s.PrepareText(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := pdb.Cached(q, fingerprint.KindVal); !ok || res.Count.String() != "14" {
		t.Fatalf("renamed ring: Cached = %+v, %v; want the ring's count 14", res, ok)
	}
	if res, ok := s.CachedText(renamed, q, fingerprint.KindVal); !ok || res.Count.String() != "14" {
		t.Fatalf("renamed ring after PrepareText: CachedText = %+v, %v; want 14", res, ok)
	}
	if n := s.Metrics().TextEntries; n != 3 {
		t.Fatalf("text memo holds %d entries, want 3", n)
	}
}

// TestPrepareTextRemembersOnlyPreparedTexts: a text that does not parse
// is a *ParseError, one that does not prepare a plain error, and neither
// enters the memo; the memo is bounded by the cache size.
func TestPrepareTextRemembersOnlyPreparedTexts(t *testing.T) {
	s := NewSolver(WithCacheSize(2))
	var pe *ParseError
	if _, err := s.PrepareText("uniform a b\nR(?1,\n"); !errors.As(err, &pe) {
		t.Fatalf("unparseable text: error %v, want a *ParseError", err)
	}
	if _, err := s.PrepareText("dom ?1 a\nR(?1, ?2)\n"); err == nil || errors.As(err, &pe) {
		t.Fatalf("text with a null lacking a domain: error %v, want a preparation error", err)
	}
	if n := s.Metrics().TextEntries; n != 0 {
		t.Fatalf("text memo holds %d entries after failures, want 0", n)
	}
	for _, text := range []string{"uniform a\nR(?1)\n", "uniform a\nR(?2)\n", "uniform a\nS(?1)\n"} {
		if _, err := s.PrepareText(text); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Metrics().TextEntries; n != 2 {
		t.Fatalf("text memo of a 2-entry solver holds %d entries", n)
	}
}
