package count

import (
	"encoding/json"
	"strconv"
	"sync"

	"github.com/incompletedb/incompletedb/internal/sweep"
)

// Checkpointing makes a brute-force sweep resumable: each range of the
// sweep's partition periodically publishes its odometer position and
// partial accumulator (valuation count, completion-dedup entries) into a
// Checkpointer, whose Snapshot can be persisted and later handed to a
// fresh sweep as the resume state. A resumed sweep parses the snapshot
// back into the same partition (ParseCheckpoint) and runs it through the
// same range loop and fold as a fresh one, on at most Options.Workers
// goroutines whatever the number of ranges; because ranges partition the
// index space contiguously and state is only ever published at exact
// visit boundaries, the final result is bit-identical to an
// uninterrupted run.

// DefaultCheckpointStride is the default number of valuations a range
// visits between publishing its state into the Checkpointer. Publishing
// is cheap for valuation counts (one big.Int add and a few short string
// renders) and O(new distinct completions) for completion sweeps, so the
// stride mainly bounds how much work a crash can lose per range.
const DefaultCheckpointStride = 1 << 16

// SweepCheckpoint is the serializable resume state of one sharded sweep.
// All positions are decimal big integers so astronomically large index
// spaces survive JSON.
type SweepCheckpoint struct {
	// Space is the size of the engine's enumerated space (after
	// relevant-null pruning) the checkpoint was taken against. A resume
	// against an engine of a different size discards the checkpoint.
	Space string `json:"space"`

	// Completions reports whether the checkpoint carries completion-dedup
	// state (a #Comp sweep) rather than a plain valuation count.
	Completions bool `json:"completions,omitempty"`

	// Shards is the per-shard resume state, in shard (= index) order.
	Shards []ShardCheckpoint `json:"shards"`
}

// ShardCheckpoint is the resume state of one contiguous shard: its
// interval, the next unvisited index, and the accumulator over [Lo, Next).
type ShardCheckpoint struct {
	Lo   string `json:"lo"`
	Next string `json:"next"`
	Hi   string `json:"hi"`

	// Count is the shard's satisfying-valuation tally over [Lo, Next)
	// (valuation sweeps only; completion sweeps keep their tally in the
	// entries below). Like the positions it is a decimal string. It never
	// exceeds Next − Lo; a checkpoint whose tally does is invalid.
	Count Tally `json:"count,omitempty"`

	// Entries is the shard's completion-dedup state: every distinct
	// completion seen over [Lo, Next), in first-seen order.
	Entries []CompletionRecord `json:"entries,omitempty"`
}

// Tally is a shard tally in serializable form: a decimal string, with ""
// meaning zero (so fresh shards keep omitting the field). Checkpoints
// written by older builds stored a bare JSON number; both encodings
// decode.
type Tally string

// UnmarshalJSON accepts both the string form and the legacy bare number.
func (t *Tally) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*t = Tally(s)
		return nil
	}
	*t = Tally(b)
	return nil
}

// value parses the tally; false means a malformed value or one beyond a
// machine word, which no shard can have counted (parseRange then rejects
// the shard).
func (t Tally) value() (uint64, bool) {
	if t == "" {
		return 0, true
	}
	n, err := strconv.ParseUint(string(t), 10, 64)
	return n, err == nil
}

// tallyOf serializes a shard tally, keeping zero as the empty tally.
func tallyOf(n uint64) Tally {
	if n == 0 {
		return ""
	}
	return Tally(strconv.FormatUint(n, 10))
}

// CompletionRecord is one distinct completion in serializable form: its
// 128-bit set hash, its exact canonical encoding over the engine's
// interned IDs (deterministic for a given database), and its query
// verdict.
type CompletionRecord struct {
	HashLo    uint64   `json:"hlo"`
	HashHi    uint64   `json:"hhi"`
	Canonical []uint32 `json:"canonical"`
	Sat       bool     `json:"sat,omitempty"`
}

// Checkpointer collects the live resume state of one sweep. Create one
// with NewCheckpointer (optionally seeding it with a previous Snapshot),
// set it on Options.Checkpoint, and call Snapshot whenever a consistent
// checkpoint is needed — including after the sweep was cancelled, when
// the final state (fresher than any stride boundary) has been flushed.
//
// A Checkpointer binds to the first sweep that runs under its Options: in
// a plan with several sweep nodes only the first is checkpointed and
// resumed (deterministically the same one across runs); the others
// recompute. A Checkpointer must not be reused across executions.
type Checkpointer struct {
	stride int64

	mu       sync.Mutex
	resume   *SweepCheckpoint
	state    *SweepCheckpoint
	acquired bool

	// onPublish, when set (tests), runs after every publish with the
	// number of publishes so far, still under mu.
	onPublish func(n int)
	publishes int
}

// NewCheckpointer returns a Checkpointer publishing shard state every
// stride valuations (0 means DefaultCheckpointStride). resume, when
// non-nil, is a Snapshot of a previous run's Checkpointer over the same
// database and query: the sweep restores it and continues. An
// incompatible resume state (different space size, malformed positions or
// encodings) is discarded and the sweep starts from scratch — still
// correct, just not resumed.
func NewCheckpointer(stride int64, resume *SweepCheckpoint) *Checkpointer {
	if stride <= 0 {
		stride = DefaultCheckpointStride
	}
	return &Checkpointer{stride: stride, resume: resume}
}

// Snapshot returns a deep-enough copy of the current resume state: the
// per-shard slots are copied; the completion records they reference are
// immutable once published. Returns nil before any sweep has bound the
// Checkpointer.
func (c *Checkpointer) Snapshot() *SweepCheckpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == nil {
		return nil
	}
	cp := &SweepCheckpoint{Space: c.state.Space, Completions: c.state.Completions}
	cp.Shards = make([]ShardCheckpoint, len(c.state.Shards))
	for i, s := range c.state.Shards {
		cp.Shards[i] = s
		cp.Shards[i].Entries = append([]CompletionRecord(nil), s.Entries...)
	}
	return cp
}

// acquire binds the Checkpointer to one sweep; the first caller wins and
// later sweeps of the same execution run un-checkpointed.
func (c *Checkpointer) acquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acquired {
		return false
	}
	c.acquired = true
	return true
}

// begin binds the Checkpointer's live state to a sweep of eng and returns
// the partition the sweep starts from: the resume checkpoint when it
// parses against eng (ParseCheckpoint), fresh geometry otherwise. The
// live state is that partition's rendering, so a Snapshot taken before
// the first publish already describes the sweep.
func (c *Checkpointer) begin(eng *sweep.Engine, opts *Options) *Partition {
	size := eng.Size()
	p, err := ParseCheckpoint(eng, c.resume)
	if err != nil {
		p = freshPartition(size, shardCount(size, opts), eng.Mode() == sweep.ModeCompletions)
	}
	state := p.checkpoint(size)
	c.mu.Lock()
	c.state = state
	c.mu.Unlock()
	return p
}

// publish records range i's state: its next unvisited index, its tally
// (#Val), and the completion records first seen since its previous
// publish (#Comp). It never fails.
func (c *Checkpointer) publish(i int, sc ShardCheckpoint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.state.Shards[i]
	s.Next, s.Count = sc.Next, sc.Count
	s.Entries = append(s.Entries, sc.Entries...)
	c.publishes++
	if c.onPublish != nil {
		c.onPublish(c.publishes)
	}
	return nil
}

// recordOf serializes one dedup entry.
func recordOf(e *compEntry) CompletionRecord {
	return CompletionRecord{
		HashLo:    e.hash.Lo,
		HashHi:    e.hash.Hi,
		Canonical: e.snap.Canonical,
		Sat:       e.sat,
	}
}
