package core

import "fmt"

// The mutation log of a Database: every effective mutation (a fact
// actually added or removed, a domain actually extended or replaced)
// bumps a monotone version counter and appends a Delta record. Consumers
// that maintain derived state — the compiled sweep engines of
// internal/sweep, the plan and factor caches of internal/solver — read
// the records since the version they last saw (DeltasSince) and patch
// themselves instead of rebuilding from scratch. The log is bounded; a
// consumer that fell too far behind is told so and rebuilds.

// DeltaOp identifies what kind of mutation a Delta records.
type DeltaOp int

const (
	// DeltaAddFact records a fact added to the table (Fact is set).
	DeltaAddFact DeltaOp = iota + 1
	// DeltaRemoveFact records a fact removed from the table (Fact is set).
	DeltaRemoveFact
	// DeltaExtendDomain records values appended to one null's domain
	// (Null and Added are set). Added holds only the genuinely new values.
	DeltaExtendDomain
	// DeltaExtendUniform records values appended to the shared domain of a
	// uniform database (Added is set) — every null's domain grew at once.
	DeltaExtendUniform
	// DeltaSetDomain records a wholesale domain replacement (Null is set).
	// It is not incrementally maintainable: consumers should rebuild.
	DeltaSetDomain
)

// String names the operation.
func (op DeltaOp) String() string {
	switch op {
	case DeltaAddFact:
		return "add-fact"
	case DeltaRemoveFact:
		return "remove-fact"
	case DeltaExtendDomain:
		return "extend-domain"
	case DeltaExtendUniform:
		return "extend-uniform-domain"
	case DeltaSetDomain:
		return "set-domain"
	default:
		return "unknown"
	}
}

// Delta is one recorded mutation. Version is the database version the
// mutation produced, so a consumer at version v needs exactly the deltas
// with Version > v, in order.
type Delta struct {
	Op      DeltaOp
	Version uint64

	// Fact is the fact added or removed (DeltaAddFact, DeltaRemoveFact).
	Fact Fact

	// Null is the affected null (DeltaExtendDomain, DeltaSetDomain).
	Null NullID

	// Added holds the values appended to the domain, new values only
	// (DeltaExtendDomain, DeltaExtendUniform).
	Added []string
}

// maxDeltaLog bounds the retained mutation log. A consumer further behind
// than the oldest retained delta gets ok=false from DeltasSince and must
// rebuild; the bound keeps a long-lived mutable database from accreting
// its whole history.
const maxDeltaLog = 4096

// Version returns the database's monotone version counter: 0 at
// construction, incremented by every effective mutation (AddFact of a new
// fact, RemoveFact of a present fact, an actual domain extension or
// replacement). No-op mutations (duplicate adds, absent removes, already
// known domain values) do not change it.
func (d *Database) Version() uint64 { return d.version }

// DeltasSince returns the mutation records after version v, in order.
// ok is false when v is ahead of the database or the records have been
// trimmed from the bounded log — the caller must then rebuild its derived
// state from the database itself. The returned slice is shared; callers
// must not modify it.
func (d *Database) DeltasSince(v uint64) (deltas []Delta, ok bool) {
	if v > d.version {
		return nil, false
	}
	if v == d.version {
		return nil, true
	}
	if v < d.logBase {
		return nil, false
	}
	// Deltas are appended with consecutive versions logBase+1, logBase+2,
	// …, version, so the wanted suffix starts at offset v − logBase.
	return d.log[v-d.logBase:], true
}

// record appends a mutation record at the next version, trimming the log
// to its bound. Trimming reslices past the dropped records instead of
// copying the kept ones: append copies the window only when it runs out
// of capacity, about once per maxDeltaLog writes, so a write costs O(1)
// amortized and the array holds at most about twice the bound.
func (d *Database) record(delta Delta) {
	d.version++
	delta.Version = d.version
	d.log = append(d.log, delta)
	if len(d.log) > maxDeltaLog {
		d.log = d.log[len(d.log)-maxDeltaLog:]
		d.logBase = d.log[0].Version - 1
	}
}

// RemoveFact removes the fact rel(args...) from the table, reporting
// whether it was present. Facts() order of the remaining facts, the
// per-relation index and the relation's arity registration are all
// preserved (an empty relation keeps its arity, so re-adding with a
// different arity still fails).
func (d *Database) RemoveFact(rel string, args ...Value) bool {
	f := Fact{Rel: rel, Args: args}
	k := f.Key()
	i, ok := d.keys[k]
	if !ok {
		return false
	}
	removed := d.facts[i]
	d.facts = append(d.facts[:i], d.facts[i+1:]...)
	delete(d.keys, k)
	for k2, idx := range d.keys {
		if idx > i {
			d.keys[k2] = idx - 1
		}
	}
	rf := d.byRel[rel]
	for j := range rf {
		if rf[j].Key() == k {
			d.byRel[rel] = append(rf[:j], rf[j+1:]...)
			break
		}
	}
	for _, a := range removed.Args {
		if a.IsNull() {
			n := a.NullID()
			if d.nullRefs[n] == 2 {
				d.shared--
			}
			d.nullRefs[n]--
			if d.nullRefs[n] <= 0 {
				delete(d.nullRefs, n)
				d.nullsCache = nil
			}
		}
	}
	d.record(Delta{Op: DeltaRemoveFact, Fact: removed})
	return true
}

// ExtendDomain appends vals to the domain of null n in a non-uniform
// database, keeping order and skipping values already present. Extending
// a null that has no domain yet creates one. Only genuinely new values
// count as a mutation (and appear in the delta record).
func (d *Database) ExtendDomain(n NullID, vals ...string) error {
	if d.uniform {
		return fmt.Errorf("core: ExtendDomain on a uniform database (null %s); use ExtendUniformDomain", n)
	}
	if n <= 0 {
		return fmt.Errorf("core: ExtendDomain on invalid null id %d", n)
	}
	cur, had := d.doms[n]
	added := newValues(cur, vals)
	if len(added) == 0 {
		if !had {
			d.doms[n] = []string{}
		}
		return nil
	}
	d.doms[n] = append(cur, added...)
	d.record(Delta{Op: DeltaExtendDomain, Null: n, Added: added})
	return nil
}

// ExtendUniformDomain appends vals to the shared domain of a uniform
// database — every null's domain grows at once. Values already present
// are skipped; only genuinely new values count as a mutation.
func (d *Database) ExtendUniformDomain(vals ...string) error {
	if !d.uniform {
		return fmt.Errorf("core: ExtendUniformDomain on a non-uniform database")
	}
	added := newValues(d.uniDom, vals)
	if len(added) == 0 {
		return nil
	}
	d.uniDom = append(d.uniDom, added...)
	d.record(Delta{Op: DeltaExtendUniform, Added: added})
	return nil
}

// newValues returns the members of vals not already in cur, deduplicated,
// in first-occurrence order.
func newValues(cur, vals []string) []string {
	seen := make(map[string]bool, len(cur)+len(vals))
	for _, v := range cur {
		seen[v] = true
	}
	var added []string
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			added = append(added, v)
		}
	}
	return added
}
