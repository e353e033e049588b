package plan

import (
	"fmt"
	"strings"

	"github.com/incompletedb/incompletedb/internal/classify"
)

// The rendered and JSON forms of a plan. Rendering is deterministic: the
// same (database, query, kind, options) always produces byte-identical
// text, so `incdb explain`, POST /v1/explain and the root Explain API
// agree and golden tests can pin the output.

// Render returns the plan as an indented tree, one node per block:
//
//	plan #Val(R(x, x) ∧ S(y, y))
//	└─ factor/independent-product — 2 independent components: …
//	   · table 1: #Val^u(q) is #P-complete [Theorem 3.9]; hard pattern R(x, x)
//	   · Theorem 3.6 (single-occurrence): rejected — …
//	   · independent-subquery factorization: accepted — …
//	   ├─ #Val(R(x, x))
//	   │  └─ brute-force — sweep 1048576 valuations
//	   …
func (p *Plan) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s(%s)\n", p.Kind, p.Query)
	renderNode(&b, p.Root, "", "")
	return b.String()
}

// renderNode writes one node block: its operator line, annotation lines
// (classification, decisions), then its children.
func renderNode(b *strings.Builder, n *Node, selfIndent, childIndent string) {
	line := string(n.Op)
	if n.Cost.Note != "" {
		line += " — " + n.Cost.Note
	}
	fmt.Fprintf(b, "%s└─ %s\n", selfIndent, line)
	ann := childIndent + "   "
	if n.Class != nil {
		fmt.Fprintf(b, "%s· table 1: %s is %s [%s]", ann, n.Class.Variant, n.Class.Complexity, n.Class.Reference)
		if n.Class.HardPattern != nil {
			fmt.Fprintf(b, "; hard pattern %s", n.Class.HardPattern)
		}
		b.WriteString("\n")
	}
	for _, d := range n.Decisions {
		verdict := "rejected"
		if d.Accepted {
			verdict = "accepted"
		}
		fmt.Fprintf(b, "%s· %s [%s]: %s — %s\n", ann, d.Algorithm, d.Reference, verdict, d.Reason)
	}
	for i, c := range n.Children {
		last := i == len(n.Children)-1
		branch, cont := "├─", "│  "
		if last {
			branch, cont = "└─", "   "
		}
		fmt.Fprintf(b, "%s%s %s(%s)\n", ann, branch, c.Kind, c.Query)
		renderNode(b, c, ann+cont, ann+cont)
	}
}

// PlanJSON is the wire form of a plan: what count/estimate responses and
// POST /v1/explain carry, and what `incdb explain -json` prints.
type PlanJSON struct {
	// Kind is "val" or "comp".
	Kind string `json:"kind"`
	// Query is the planned query, rendered in parseable syntax.
	Query string `json:"query"`
	// Method is the compact operator signature of the whole tree.
	Method string `json:"method"`
	// Text is the rendered plan (Plan.Render), identical across the CLI,
	// the HTTP API and the Go API for the same input.
	Text string `json:"text"`
	// Root is the structured plan tree.
	Root *NodeJSON `json:"root"`
}

// NodeJSON is the wire form of one plan node.
type NodeJSON struct {
	Op        string         `json:"op"`
	Method    string         `json:"method"`
	Query     string         `json:"query"`
	Cost      *CostJSON      `json:"cost,omitempty"`
	Class     *ClassJSON     `json:"classification,omitempty"`
	Decisions []DecisionJSON `json:"decisions,omitempty"`
	Children  []*NodeJSON    `json:"children,omitempty"`
}

// CostJSON is the wire form of a node cost. Sizes are decimal strings so
// astronomically large spaces survive JSON.
type CostJSON struct {
	Space        string `json:"space,omitempty"`
	TotalSpace   string `json:"total_space,omitempty"`
	PrunedNulls  int    `json:"pruned_nulls,omitempty"`
	ExceedsGuard bool   `json:"exceeds_guard,omitempty"`
	Note         string `json:"note,omitempty"`
}

// ClassJSON is the wire form of a node's Table 1 classification.
type ClassJSON struct {
	Variant     string `json:"variant"`
	Complexity  string `json:"complexity"`
	Approx      string `json:"approx"`
	HardPattern string `json:"hard_pattern,omitempty"`
	Reference   string `json:"reference"`
}

// DecisionJSON is the wire form of one decision-record entry.
type DecisionJSON struct {
	Algorithm string `json:"algorithm"`
	Op        string `json:"op"`
	Reference string `json:"reference"`
	Accepted  bool   `json:"accepted"`
	Reason    string `json:"reason,omitempty"`
}

// JSON returns the wire form of the plan.
func (p *Plan) JSON() *PlanJSON {
	return &PlanJSON{
		Kind:   kindString(p.Kind),
		Query:  p.Query.String(),
		Method: p.Method(),
		Text:   p.Render(),
		Root:   p.Root.JSON(),
	}
}

// JSON returns the wire form of the node subtree.
func (n *Node) JSON() *NodeJSON {
	out := &NodeJSON{
		Op:     string(n.Op),
		Method: n.Method(),
		Query:  n.Query.String(),
	}
	if c := n.Cost; c.Space != nil || c.TotalSpace != nil || c.Note != "" || c.PrunedNulls > 0 || c.ExceedsGuard {
		cj := &CostJSON{
			PrunedNulls:  c.PrunedNulls,
			ExceedsGuard: c.ExceedsGuard,
			Note:         c.Note,
		}
		if c.Space != nil {
			cj.Space = c.Space.String()
		}
		if c.TotalSpace != nil {
			cj.TotalSpace = c.TotalSpace.String()
		}
		out.Cost = cj
	}
	if n.Class != nil {
		cl := &ClassJSON{
			Variant:    n.Class.Variant.String(),
			Complexity: n.Class.Complexity.String(),
			Approx:     n.Class.Approx.String(),
			Reference:  n.Class.Reference,
		}
		if n.Class.HardPattern != nil {
			cl.HardPattern = n.Class.HardPattern.String()
		}
		out.Class = cl
	}
	for _, d := range n.Decisions {
		out.Decisions = append(out.Decisions, DecisionJSON{
			Algorithm: d.Algorithm,
			Op:        string(d.Op),
			Reference: d.Reference,
			Accepted:  d.Accepted,
			Reason:    d.Reason,
		})
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.JSON())
	}
	return out
}

func kindString(k classify.CountingKind) string {
	if k == classify.Completions {
		return "comp"
	}
	return "val"
}
