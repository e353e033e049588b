package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; the op's
// root span is named "op", has ID 0 and Parent -1, and every layer span's
// Parent is the ID of the span it ran inside. Times are nanoseconds since
// the tracer's origin.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans a tracer keeps for the span file; the
// layer totals cover every op regardless.
const maxKeptSpans = 5000

// tracer records the spans of one run's ops and folds each finished
// op into per-layer self-time totals. The methods of a nil *tracer do
// nothing, which is the untraced path.
type tracer struct {
	origin time.Time
	cur    []span
	stack  []int
	kept   []span
	self   map[string]time.Duration
	wall   time.Duration
	ops    int64
	// overrun counts ops whose layer self times summed to more than the
	// op's wall time, which would mean the spans are nested wrongly.
	overrun int64
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, self: make(map[string]time.Duration)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// startOp opens the root span of op seq.
func (t *tracer) startOp(seq int64) {
	if t == nil {
		return
	}
	t.cur = append(t.cur[:0], span{Op: seq, Parent: -1, Name: "op", Start: t.now()})
	t.stack = append(t.stack[:0], 0)
}

// begin opens a span inside the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.cur)
	t.cur = append(t.cur, span{Op: t.cur[0].Op, ID: id, Parent: t.stack[len(t.stack)-1], Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.cur[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// endOp closes the root span and adds each span's self time (its
// duration minus its children's, which run one after another) to its
// layer's total.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end(0)
	children := make([]int64, len(t.cur))
	for _, s := range t.cur[1:] {
		children[s.Parent] += s.End - s.Start
	}
	var layers int64
	for i, s := range t.cur[1:] {
		self := s.End - s.Start - children[i+1]
		t.self[s.Name] += time.Duration(self)
		layers += self
	}
	wall := t.cur[0].End - t.cur[0].Start
	t.wall += time.Duration(wall)
	t.ops++
	if layers > wall {
		t.overrun++
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, t.cur...)
	}
}

// writeSpans writes the kept spans of t to path, one JSON object per line.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
