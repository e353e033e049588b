package core

import "fmt"

// The mutations of a Database after construction: removing a fact and
// extending a domain (AddFact and SetDomain live in database.go). Every
// effective mutation (a fact actually added or removed, a domain actually
// extended or replaced) bumps a monotone version counter and nothing
// else; no record of the change is kept. Derived state elsewhere either
// serves one version (a session's canonical form and plans are rebuilt
// when the version moves) or is keyed by the content it was computed
// from, so it needs no account of what changed.

// Version returns the database's monotone version counter: 0 at
// construction, incremented by every effective mutation (AddFact of a new
// fact, RemoveFact of a present fact, an actual domain extension or
// replacement). No-op mutations (duplicate adds, absent removes, already
// known domain values) do not change it.
func (d *Database) Version() uint64 { return d.version }

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
	d.version++
	return true
}

// ExtendDomain appends vals to the domain of null n in a non-uniform
// database, keeping order and skipping values already present. Extending
// a null that has no domain yet creates one. Only genuinely new values
// count as a mutation.
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
	d.version++
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
	d.version++
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
