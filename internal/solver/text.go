package solver

import (
	"crypto/sha256"
	"unsafe"

	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
)

// This file holds the solver's two memos of canonical forms.
//
// The text memo is a bounded LRU from the SHA-256 of a database's text to
// the digest of its canonical form. Parsing is a function of the text, so
// byte-identical texts describe one database and share one digest; a
// client that resends a database the solver has prepared before is
// answered from the result cache by a hash and two lookups, without
// parsing or canonicalizing it again. The memo holds only the two
// 32-byte hashes per entry — no text, canonical form, session or plan —
// so a stream of new databases costs it no more than its bound. It is
// sized, and disabled, together with the result cache. A text is hashed
// in place by each call that takes it: a miss that goes on to
// PrepareText hashes it twice, once per call, which costs microseconds
// against the parse it then pays for.
//
// The query-form memo is a bounded LRU from a query's as-written
// encoding (appendQuery) to its canonical form (fingerprint.Query), so
// the entry points of one call sequence — Cached, Explain, CountWith —
// canonicalize a query once per distinct text instead of once each.

// textKey is the memo key of a database text: its SHA-256. The text is
// hashed through a read-only view of its bytes, which Sum256 does not
// keep or modify, instead of a copy.
func textKey(text string) string {
	sum := sha256.Sum256(unsafe.Slice(unsafe.StringData(text), len(text)))
	return string(sum[:])
}

// queryFormMemoSize bounds the solver's query-form memo. It is a
// constant, independent of the result cache's size: an entry costs two
// strings about the size of the query's text.
const queryFormMemoSize = 1024

// queryForm computes a canonical query form. It is a variable so tests
// can count the computations.
var queryForm = fingerprint.Query

// canonicalQuery returns fingerprint.Query(q), from the query-form memo
// when q, as written, was canonicalized before. A query appendQuery
// cannot encode — a negation, TRUE or an opaque cq.Func — is
// canonicalized on every call.
func (s *Solver) canonicalQuery(q cq.Query) string {
	// The encoding is built on the stack; a longer one grows onto the heap.
	var buf [256]byte
	var rels [16]string
	b, _, ok := appendQuery(buf[:0], rels[:0], q)
	if !ok {
		return queryForm(q)
	}
	key := string(b)
	if form, ok := s.forms.get(key); ok {
		return form
	}
	form := queryForm(q)
	s.forms.add(key, form)
	return form
}

// ParseError reports a text PrepareText could not parse as a database.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// CachedText is PreparedDB.Cached for the database text describes (the
// format of core.ParseDatabase), without parsing it: when the solver has
// prepared byte-identical text before, the memo gives the digest of its
// canonical form, and the result cache is peeked under the fingerprint
// of that digest. It reports false when the text is not in the memo or
// no result is cached. A hit has no session, so its Stats.Epoch, like
// its Plan and Method, describes the first computation.
func (s *Solver) CachedText(text string, q cq.Query, kind fingerprint.Kind) (*Result, bool) {
	d, ok := s.texts.get(textKey(text))
	if !ok {
		return nil, false
	}
	return s.peek(d, s.canonicalQuery(q), kind)
}

// PrepareText parses text and prepares the database it describes (see
// Prepare). A text that does not parse returns a *ParseError. Once the
// database is prepared, the memo remembers the digest of its canonical
// form under the text's hash, so later CachedText calls on
// byte-identical text skip the parse.
func (s *Solver) PrepareText(text string) (*PreparedDB, error) {
	db, err := core.ParseDatabaseString(text)
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	p, err := s.Prepare(db)
	if err != nil {
		return nil, err
	}
	s.texts.add(textKey(text), p.digest)
	return p, nil
}

// peek looks up the result cache under the fingerprint of (a database
// digest, a canonical query, kind), at the entry of a call under the
// solver's own planning options: the one lookup behind both
// PreparedDB.Cached and CachedText. A found result counts as a cache
// hit; an absent one does not count as a miss.
func (s *Solver) peek(d fingerprint.Digest, canonQ string, kind fingerprint.Kind) (*Result, bool) {
	res, ok := s.cache.get(fingerprint.OfDigest(d, canonQ, kind))
	if !ok {
		return nil, false
	}
	s.hits.Add(1)
	c := res.clone()
	c.Stats.CacheHit = true
	return c, true
}
