package core

import (
	"fmt"
	"strings"
	"unicode"
)

// Fact is an atom R(a1, ..., ak) whose arguments may be constants or nulls.
type Fact struct {
	Rel  string
	Args []Value
}

// NewFact builds a fact from a relation name and argument values.
func NewFact(rel string, args ...Value) Fact {
	return Fact{Rel: rel, Args: args}
}

// Arity returns the number of arguments.
func (f Fact) Arity() int { return len(f.Args) }

// IsGround reports whether the fact contains no nulls.
func (f Fact) IsGround() bool {
	for _, a := range f.Args {
		if a.IsNull() {
			return false
		}
	}
	return true
}

// Nulls returns the distinct nulls occurring in the fact, in order of first
// occurrence.
func (f Fact) Nulls() []NullID {
	var out []NullID
	seen := make(map[NullID]bool, len(f.Args))
	for _, a := range f.Args {
		if a.IsNull() && !seen[a.NullID()] {
			seen[a.NullID()] = true
			out = append(out, a.NullID())
		}
	}
	return out
}

// Key returns a canonical encoding of the fact, unique per fact. It is used
// for set semantics (fact deduplication).
func (f Fact) Key() string {
	var b strings.Builder
	b.WriteString(f.Rel)
	for _, a := range f.Args {
		b.WriteByte('\x00')
		if a.IsNull() {
			b.WriteString(a.NullID().String())
		} else {
			// Escape a leading '?' so that the constant "?1" cannot
			// collide with null ?1.
			if strings.HasPrefix(a.Constant(), "?") {
				b.WriteByte('\x01')
			}
			b.WriteString(a.Constant())
		}
	}
	return b.String()
}

// String renders the fact as "R(a, ?1)".
func (f Fact) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Rel, strings.Join(parts, ", "))
}

// ParseFact parses the textual form produced by Fact.String, e.g.
// "R(a, ?1, b)". Argument tokens beginning with '?' are nulls. A relation
// name may not hold a control character, such as a newline.
func ParseFact(s string) (Fact, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return Fact{}, fmt.Errorf("core: malformed fact %q", s)
	}
	rel := strings.TrimSpace(s[:open])
	inner := strings.TrimSpace(s[open+1 : len(s)-1])
	if rel == "" {
		return Fact{}, fmt.Errorf("core: malformed fact %q: empty relation", s)
	}
	if strings.ContainsFunc(rel, unicode.IsControl) {
		return Fact{}, fmt.Errorf("core: malformed fact %q: control character in relation name", s)
	}
	if inner == "" {
		return Fact{}, fmt.Errorf("core: malformed fact %q: zero arity", s)
	}
	toks := strings.Split(inner, ",")
	args := make([]Value, len(toks))
	for i, t := range toks {
		t = strings.TrimSpace(t)
		if t == "" {
			return Fact{}, fmt.Errorf("core: malformed fact %q: empty argument %d", s, i)
		}
		v, err := ParseValue(t)
		if err != nil {
			return Fact{}, err
		}
		args[i] = v
	}
	return Fact{Rel: rel, Args: args}, nil
}
