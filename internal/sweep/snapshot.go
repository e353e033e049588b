package sweep

import "fmt"

// Snapshot captures one distinct completion for exact dedup: its canonical
// encoding (for cross-shard merges and collision buckets) split into
// per-fact (hash, offset, length) records, so a cursor can test set
// equality against it by probing its own distinct-value multiset — one
// O(1) probe per snapshot fact, no sorting or encoding on the
// duplicate-heavy hot path.
type Snapshot struct {
	// Canonical is the exact canonical encoding: the distinct facts as
	// (rel, args...) interned-ID sequences, sorted. Two completions of
	// the same engine are equal iff their Canonical encodings are equal.
	Canonical []uint32

	facts []snapFact
}

type snapFact struct {
	h   Hash128
	off int32 // offset of (rel, args...) in Canonical
	n   int32 // sequence length, 1 + arity
}

// Snapshot captures the cursor's current completion.
func (c *Cursor) Snapshot() *Snapshot {
	s := &Snapshot{Canonical: c.AppendCanonical(nil)}
	s.index(c.eng)
	return s
}

// SnapshotUsing is Snapshot with a reusable canonical scratch buffer:
// the encoding is built in buf (grown as needed), copied right-sized
// into the snapshot, and the grown buf is returned for the caller's next
// capture — per-shard dedup loops reuse one buffer across all their
// first-sight snapshots instead of growing a fresh one each time.
func (c *Cursor) SnapshotUsing(buf []uint32) (*Snapshot, []uint32) {
	buf = c.AppendCanonical(buf[:0])
	s := &Snapshot{Canonical: append(make([]uint32, 0, len(buf)), buf...)}
	s.index(c.eng)
	return s, buf
}

// SnapshotOf rehydrates a Snapshot from a canonical encoding previously
// produced by a cursor of an equivalently compiled engine (the same
// database compiles to the same interned IDs deterministically). This is
// how checkpointed completion-dedup state comes back from disk. The
// encoding is validated structurally — a truncated or corrupted blob
// returns an error instead of a panicking snapshot.
func (e *Engine) SnapshotOf(canonical []uint32) (*Snapshot, error) {
	for off := 0; off < len(canonical); {
		rel := canonical[off]
		if int(rel) >= len(e.relArity) {
			return nil, fmt.Errorf("sweep: canonical encoding names unknown relation id %d", rel)
		}
		n := int(e.relArity[rel]) + 1
		if off+n > len(canonical) {
			return nil, fmt.Errorf("sweep: canonical encoding truncated at offset %d", off)
		}
		off += n
	}
	s := &Snapshot{Canonical: append([]uint32(nil), canonical...)}
	s.index(e)
	return s, nil
}

// index splits Canonical into per-fact records with their hashes.
func (s *Snapshot) index(e *Engine) {
	n := 0
	for off := 0; off < len(s.Canonical); n++ {
		off += int(e.relArity[s.Canonical[off]]) + 1
	}
	s.facts = make([]snapFact, 0, n)
	for off := 0; off < len(s.Canonical); {
		rel := s.Canonical[off]
		n := int(e.relArity[rel]) + 1
		h := factHash(rel, s.Canonical[off+1:off+n])
		s.facts = append(s.facts, snapFact{h: h, off: int32(off), n: int32(n)})
		off += n
	}
}

// EqualsSnapshot reports whether the cursor's current completion is
// exactly the snapshot's. The cursor's multiset already holds the
// completion's distinct fact values, so equality is one cardinality
// compare plus one multiset probe per snapshot fact — and since the
// multiset verifies values (not just hashes), even a 128-bit fact-hash
// collision cannot produce a false equality. Only valid on
// ModeCompletions cursors, the only ones that deduplicate.
func (c *Cursor) EqualsSnapshot(s *Snapshot) bool {
	if c.mult == nil {
		panic("sweep: EqualsSnapshot on a cursor without completion state")
	}
	if c.mult.live != len(s.facts) {
		return false
	}
	for j := range s.facts {
		f := &s.facts[j]
		if !c.mult.contains(f.h, s.Canonical[f.off], s.Canonical[f.off+1:f.off+f.n]) {
			return false
		}
	}
	return true
}
