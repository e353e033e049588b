// Package incompletedb is a from-scratch implementation of the counting
// framework of Arenas, Barceló and Monet, "Counting Problems over
// Incomplete Databases" (PODS 2020, arXiv:1912.11064).
//
// It provides:
//
//   - the incomplete-database model under the closed-world assumption:
//     naïve tables and Codd tables whose labeled nulls range over finite
//     domains, either per-null (non-uniform) or shared (uniform);
//   - Boolean conjunctive queries, unions and negations thereof, with
//     homomorphism-based model checking and the pattern relation of
//     Definition 3.1;
//   - the counting problems #Val(q) (valuations whose completion satisfies
//     q) and #Comp(q) (distinct completions satisfying q), solved exactly
//     by the paper's four polynomial-time algorithms on the tractable sides
//     of Table 1 and by guarded brute force elsewhere — the brute-force
//     sweep shards the valuation space across a worker pool and supports
//     cancellation, with results identical to a serial sweep;
//   - a session-centric API (Solver, PreparedDB) that amortizes
//     canonicalization, plan construction and sweep-engine compilation
//     across many queries over one database, caches results by canonical
//     fingerprint, and streams satisfying completions through Go
//     iterators;
//   - the dichotomy classifier of Table 1, including approximability
//     (Section 5) and the beyond-#P observations (Section 6);
//   - a Karp–Luby FPRAS for #Val(q) over unions of BCQs (Corollary 5.3),
//     plus Monte Carlo estimation and heuristic completion lower bounds;
//   - executable versions of every hardness reduction in the paper (package
//     internal/reductions), validated against independent counters.
//
// # Quick start
//
//	db := incompletedb.NewDatabase()
//	db.MustAddFact("S", incompletedb.Const("a"), incompletedb.Const("b"))
//	db.MustAddFact("S", incompletedb.Null(1), incompletedb.Const("a"))
//	db.MustAddFact("S", incompletedb.Const("a"), incompletedb.Null(2))
//	db.SetDomain(1, []string{"a", "b", "c"})
//	db.SetDomain(2, []string{"a", "b"})
//
//	s := incompletedb.NewSolver()
//	pdb, err := s.Prepare(db)
//	q := incompletedb.MustParseQuery("S(x, x)")
//	res, err := pdb.Count(ctx, q, incompletedb.Valuations)
//	// res.Count = 4, the #Val(q) count of Example 2.2 / Figure 1 of the
//	// paper; res.Method and res.Plan explain how it was computed.
//
// See solver.go for the session API (Prepare once, query many times,
// stream completions); the README maps the removed free functions of
// earlier versions onto it.
//
// All counts are exact big integers; the library is pure Go standard
// library.
package incompletedb

import (
	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/core"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/fingerprint"
	"github.com/incompletedb/incompletedb/internal/plan"
	"github.com/incompletedb/incompletedb/internal/server"
)

// Core model types.
type (
	// Database is an incomplete database (T, dom): a naïve table with a
	// finite domain per null (or one shared domain when uniform).
	Database = core.Database
	// Instance is a complete database: the result of applying a valuation.
	Instance = core.Instance
	// Fact is an atom R(a1, ..., ak) over constants and nulls.
	Fact = core.Fact
	// Value is a fact argument: a constant or a null.
	Value = core.Value
	// NullID identifies a labeled null (positive integers).
	NullID = core.NullID
	// Valuation maps nulls to constants.
	Valuation = core.Valuation
	// ValuationSpace is an indexed, sliceable, uniformly samplable view of
	// a database's valuations; obtain one with Database.ValuationSpace.
	ValuationSpace = core.ValuationSpace
)

// Query types.
type (
	// Query is a Boolean query.
	Query = cq.Query
	// BCQ is a Boolean conjunctive query.
	BCQ = cq.BCQ
	// UCQ is a union of Boolean conjunctive queries.
	UCQ = cq.UCQ
	// Negation is the negation of a Boolean query.
	Negation = cq.Negation
	// Tautology is the always-true query.
	Tautology = cq.Tautology
	// Atom is a relational atom of a conjunctive query.
	Atom = cq.Atom
	// BCQNeq is a BCQ extended with inequality atoms x ≠ y (footnote 4 of
	// the paper).
	BCQNeq = cq.BCQNeq
)

// Classification types.
type (
	// Variant identifies one of the eight counting problems (kind ×
	// Codd × uniform).
	Variant = classify.Variant
	// ClassificationResult is the Table 1 outcome for one variant.
	ClassificationResult = classify.Result
	// Complexity is FP, #P-complete, #P-hard or open.
	Complexity = classify.Complexity
	// CountingKind selects valuations or completions.
	CountingKind = classify.CountingKind
)

// Re-exported enum values.
const (
	// Valuations selects the problem #Val(q).
	Valuations = classify.Valuations
	// Completions selects the problem #Comp(q).
	Completions = classify.Completions
	// FP marks polynomial-time computability.
	FP = classify.FP
	// SharpPComplete marks #P-completeness.
	SharpPComplete = classify.SharpPComplete
	// SharpPHard marks #P-hardness without a #P membership claim.
	SharpPHard = classify.SharpPHard
	// OpenComplexity marks the paper's open case.
	OpenComplexity = classify.Open
)

// Query-planning types (package internal/plan): the explainable, costed
// plan DAG the counting dispatchers compile before executing, with
// per-node decision records of every algorithm tried and the paper
// precondition that failed.
type (
	// Plan is a compiled counting problem; render it with Plan.Render,
	// serialize it with Plan.JSON.
	Plan = plan.Plan
	// PlanNode is one operator of a plan DAG.
	PlanNode = plan.Node
	// PlanDecision is one structured entry of a node's decision record.
	PlanDecision = plan.Decision
	// PlanOp identifies the algorithm (or rewrite) a plan node applies.
	PlanOp = plan.Op
)

// Model constructors, re-exported from the core model.
var (
	// NewDatabase returns an empty non-uniform incomplete database.
	NewDatabase = core.NewDatabase
	// NewUniformDatabase returns an empty uniform incomplete database.
	NewUniformDatabase = core.NewUniformDatabase
	// NewInstance returns an empty complete database.
	NewInstance = core.NewInstance
	// Const builds a constant value.
	Const = core.Const
	// Null builds a null value.
	Null = core.Null
	// ParseDatabase reads the textual database format.
	ParseDatabase = core.ParseDatabase
	// ParseDatabaseString reads the textual database format from a string.
	ParseDatabaseString = core.ParseDatabaseString
)

// Query constructors.
var (
	// ParseQuery parses a Boolean query ("R(x,y) ∧ S(x)", "A(x) | B(y)",
	// "!R(x,x)", "TRUE").
	ParseQuery = cq.Parse
	// MustParseQuery is ParseQuery that panics on error.
	MustParseQuery = cq.MustParse
	// ParseBCQ parses a Boolean conjunctive query.
	ParseBCQ = cq.ParseBCQ
	// MustParseBCQ is ParseBCQ that panics on error.
	MustParseBCQ = cq.MustParseBCQ
	// IsPatternOf decides the pattern relation of Definition 3.1.
	IsPatternOf = cq.IsPatternOf
)

// Classification functions.
var (
	// Classify determines the Table 1 complexity of one variant for an
	// sjfBCQ.
	Classify = classify.Classify
	// ClassifyAll classifies an sjfBCQ under all eight variants.
	ClassifyAll = classify.ClassifyAll
	// AllVariants lists the eight problem variants.
	AllVariants = classify.AllVariants
	// Table1 renders the dichotomy table of the paper.
	Table1 = classify.Table1
)

// Canonical forms and fingerprints (package internal/fingerprint): inputs
// that are identical up to null/variable renaming and fact/atom order
// share one canonical form, the basis of the solver's result cache.
type (
	// FingerprintKind tags which counting problem a fingerprint caches
	// ("val", "comp", "certain", "possible").
	FingerprintKind = fingerprint.Kind
)

// Fingerprint kinds.
const (
	FingerprintVal      = fingerprint.KindVal
	FingerprintComp     = fingerprint.KindComp
	FingerprintCertain  = fingerprint.KindCertain
	FingerprintPossible = fingerprint.KindPossible
)

// CanonicalDatabase returns the canonical (null-renaming-invariant) form
// of a database: isomorphic databases — renamed nulls, reordered facts or
// domains — share one canonical form.
func CanonicalDatabase(db *Database) string {
	return fingerprint.Database(db)
}

// CanonicalQuery returns the canonical (variable-renaming-invariant) form
// of a query.
func CanonicalQuery(q Query) string {
	return fingerprint.Query(q)
}

// Fingerprint returns the cache key of (database, query, kind): a
// SHA-256 over the kind, the SHA-256 of the database's canonical form
// and the query's canonical form.
func Fingerprint(db *Database, q Query, kind FingerprintKind) string {
	return fingerprint.Of(db, q, kind)
}

// The counting service (package internal/server): the HTTP/JSON API
// behind `incdb serve`, embeddable in other processes via NewServer and
// Server.Handler. The service is a thin adapter over a Solver: its result
// cache and single-flight deduplication live in the solver layer.
type (
	// Server is the caching, job-supervising counting service.
	Server = server.Server
	// ServerConfig configures a Server (cache size, valuation budget,
	// worker-pool width, job retention).
	ServerConfig = server.Config
	// ServiceRequest is one unit of API work.
	ServiceRequest = server.Request
	// ServiceResponse is the outcome of one ServiceRequest.
	ServiceResponse = server.Response
	// ServiceJob is the public state of an asynchronous counting job.
	ServiceJob = server.Job
)

// NewServer returns a counting service ready to serve; see
// Server.ListenAndServe and Server.Handler.
func NewServer(cfg ServerConfig) *Server {
	return server.New(cfg)
}
