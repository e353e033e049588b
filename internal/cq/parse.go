package cq

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse parses a Boolean query. Grammar (whitespace-insensitive):
//
//	query    := "TRUE" | negation | union
//	negation := ("!" | "¬" | "NOT") union
//	union    := conj { ("|" | "∨" | "OR") conj }
//	conj     := atom { ("," | "∧" | "&" | "AND") atom }
//	atom     := ident "(" ident { "," ident } ")"
//
// A single conjunction parses to *BCQ, a union of two or more to *UCQ, and a
// negation to *Negation. Examples: "R(x, x)", "R(x) ∧ S(x,y) ∧ T(y)",
// "R(x) | S(y,y)", "!R(x,y)".
func Parse(s string) (Query, error) {
	p := &parser{src: s}
	p.skipSpace()
	if p.eatWord("TRUE") {
		p.skipSpace()
		if !p.done() {
			return nil, p.errf("trailing input after TRUE")
		}
		return Tautology{}, nil
	}
	neg := false
	if p.eat('!') || p.eat('¬') || p.eatWord("NOT") {
		neg = true
	}
	// An optional grouping parenthesis may follow a negation, as produced by
	// Negation.String(); atoms never start with '(' so this is unambiguous.
	grouped := neg && p.eat('(')
	u, diffs, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if grouped && !p.eat(')') {
		return nil, p.errf("expected ')' closing negation group")
	}
	p.skipSpace()
	if !p.done() {
		return nil, p.errf("trailing input")
	}
	var q Query
	switch {
	case len(diffs) > 0:
		nq := &BCQNeq{Base: u.Disjuncts[0], Diffs: diffs}
		if err := nq.Validate(); err != nil {
			return nil, err
		}
		q = nq
	case len(u.Disjuncts) == 1:
		q = u.Disjuncts[0]
	default:
		q = u
	}
	if neg {
		q = &Negation{Inner: q}
	}
	return q, nil
}

// ParseBCQ parses a Boolean conjunctive query (no union, no negation).
func ParseBCQ(s string) (*BCQ, error) {
	q, err := Parse(s)
	if err != nil {
		return nil, err
	}
	b, ok := q.(*BCQ)
	if !ok {
		return nil, fmt.Errorf("cq: %q is not a conjunctive query", s)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// MustParseBCQ is ParseBCQ that panics on error; intended for tests and
// package-level pattern constants.
func MustParseBCQ(s string) *BCQ {
	q, err := ParseBCQ(s)
	if err != nil {
		panic(err)
	}
	return q
}

// MustParse is Parse that panics on error.
func MustParse(s string) Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("cq: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) done() bool { return p.pos >= len(p.src) }

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) eat(r rune) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], string(r)) {
		p.pos += len(string(r))
		return true
	}
	return false
}

func (p *parser) eatWord(w string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], w) {
		rest := p.src[p.pos+len(w):]
		if rest == "" || !isIdentChar(rune(rest[0])) {
			p.pos += len(w)
			return true
		}
	}
	return false
}

func isIdentChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\''
}

func (p *parser) parseIdent() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isIdentChar(rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected identifier")
	}
	return p.src[start:p.pos], nil
}

// eatNeq consumes an inequality token ("≠" or "!=").
func (p *parser) eatNeq() bool {
	if p.eat('≠') {
		return true
	}
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "!=") {
		p.pos += 2
		return true
	}
	return false
}

// parseAtomTail parses the argument list of an atom over rel, whose name
// was just read.
func (p *parser) parseAtomTail(rel string) (Atom, error) {
	if !p.eat('(') {
		return Atom{}, p.errf("expected '(' after relation %s", rel)
	}
	var vars []string
	for {
		v, err := p.parseIdent()
		if err != nil {
			return Atom{}, err
		}
		vars = append(vars, v)
		if p.eat(',') {
			continue
		}
		break
	}
	if !p.eat(')') {
		return Atom{}, p.errf("expected ')' in atom over %s", rel)
	}
	return Atom{Rel: rel, Vars: vars}, nil
}

// parseConj parses a conjunction of relational atoms and inequality terms
// "x ≠ y" / "x != y".
func (p *parser) parseConj() (*BCQ, [][2]string, error) {
	var atoms []Atom
	var diffs [][2]string
	for {
		ident, err := p.parseIdent()
		if err != nil {
			return nil, nil, err
		}
		if p.eatNeq() {
			rhs, err := p.parseIdent()
			if err != nil {
				return nil, nil, err
			}
			diffs = append(diffs, [2]string{ident, rhs})
		} else {
			a, err := p.parseAtomTail(ident)
			if err != nil {
				return nil, nil, err
			}
			atoms = append(atoms, a)
		}
		if p.eat(',') || p.eat('∧') || p.eat('&') || p.eatWord("AND") {
			continue
		}
		break
	}
	return &BCQ{Atoms: atoms}, diffs, nil
}

func (p *parser) parseUnion() (*UCQ, [][2]string, error) {
	var disjuncts []*BCQ
	var diffs [][2]string
	for {
		c, d, err := p.parseConj()
		if err != nil {
			return nil, nil, err
		}
		disjuncts = append(disjuncts, c)
		diffs = append(diffs, d...)
		if p.eat('|') || p.eat('∨') || p.eatWord("OR") {
			continue
		}
		break
	}
	if len(diffs) > 0 && len(disjuncts) > 1 {
		return nil, nil, p.errf("inequalities are only supported in a single conjunctive query")
	}
	return &UCQ{Disjuncts: disjuncts}, diffs, nil
}
