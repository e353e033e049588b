package core

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Database is an incomplete database D = (T, dom): a naïve table T (a set of
// facts over constants and nulls) together with a finite domain for each
// null. A Database is either non-uniform (each null carries its own domain,
// set via SetDomain) or uniform (a single domain shared by all nulls, fixed
// at construction time via NewUniformDatabase).
//
// A Database is mutable: facts can be added (AddFact) and removed
// (RemoveFact), and domains can be extended (ExtendDomain,
// ExtendUniformDomain). Every effective mutation bumps the monotone
// Version counter (see delta.go); that is all a mutation records, so
// state derived elsewhere is either rebuilt at the new version or keyed
// by the content it was computed from.
//
// The zero value is not usable; use NewDatabase or NewUniformDatabase.
type Database struct {
	facts    []Fact
	keys     map[string]struct{} // fact keys, for set semantics
	byRel    map[string][]Fact   // per-relation view of facts, insertion order
	arity    map[string]int
	nullRefs map[NullID]int // occurrences per null (argument positions)
	// shared counts the nulls with more than one occurrence: the table is
	// a Codd table exactly when it is zero.
	shared int

	uniform bool
	uniDom  []string            // shared domain when uniform
	doms    map[NullID][]string // per-null domains when non-uniform

	nullsCache []NullID // sorted; nil when dirty

	version uint64 // monotone mutation counter
}

// NewDatabase returns an empty non-uniform incomplete database. Every null
// used in a fact must be given a domain with SetDomain before the database
// is evaluated.
func NewDatabase() *Database {
	return &Database{
		keys:     make(map[string]struct{}),
		byRel:    make(map[string][]Fact),
		arity:    make(map[string]int),
		nullRefs: make(map[NullID]int),
		doms:     make(map[NullID][]string),
	}
}

// NewUniformDatabase returns an empty uniform incomplete database whose
// nulls all range over dom. Duplicates in dom are removed; order is kept.
func NewUniformDatabase(dom []string) *Database {
	d := &Database{
		keys:     make(map[string]struct{}),
		byRel:    make(map[string][]Fact),
		arity:    make(map[string]int),
		nullRefs: make(map[NullID]int),
		uniform:  true,
		uniDom:   dedupStrings(dom),
	}
	return d
}

func dedupStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := make([]string, 0, len(in))
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Uniform reports whether the database is uniform (all nulls share one
// domain).
func (d *Database) Uniform() bool { return d.uniform }

// UniformDomain returns the shared domain of a uniform database. It panics
// on a non-uniform database.
func (d *Database) UniformDomain() []string {
	if !d.uniform {
		panic("core: UniformDomain called on a non-uniform database")
	}
	return d.uniDom
}

// AddFact adds the fact rel(args...) to the table. Duplicate facts are
// ignored (set semantics). It returns an error if the relation was used
// before with a different arity, or if the fact has arity zero.
func (d *Database) AddFact(rel string, args ...Value) error {
	if len(args) == 0 {
		return fmt.Errorf("core: fact over %s has arity zero", rel)
	}
	if a, ok := d.arity[rel]; ok && a != len(args) {
		return fmt.Errorf("core: relation %s used with arities %d and %d", rel, a, len(args))
	}
	f := Fact{Rel: rel, Args: append([]Value(nil), args...)}
	k := f.Key()
	if _, dup := d.keys[k]; dup {
		return nil
	}
	d.arity[rel] = len(args)
	d.keys[k] = struct{}{}
	d.facts = append(d.facts, f)
	d.byRel[rel] = append(d.byRel[rel], f)
	for _, v := range f.Args {
		if v.IsNull() {
			n := v.NullID()
			if d.nullRefs[n] == 0 {
				d.nullsCache = nil
			}
			d.nullRefs[n]++
			if d.nullRefs[n] == 2 {
				d.shared++
			}
		}
	}
	d.version++
	return nil
}

// MustAddFact is AddFact that panics on error; intended for tests and
// literal database construction.
func (d *Database) MustAddFact(rel string, args ...Value) {
	if err := d.AddFact(rel, args...); err != nil {
		panic(err)
	}
}

// SetDomain assigns the domain of null n in a non-uniform database.
// Duplicates in dom are removed; order is kept. It returns an error on a
// uniform database.
func (d *Database) SetDomain(n NullID, dom []string) error {
	if d.uniform {
		return fmt.Errorf("core: SetDomain on a uniform database (null %s)", n)
	}
	if n <= 0 {
		return fmt.Errorf("core: SetDomain on invalid null id %d", n)
	}
	next := dedupStrings(dom)
	if cur, ok := d.doms[n]; ok && equalStrings(cur, next) {
		return nil
	}
	d.doms[n] = next
	d.version++
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Domain returns the domain of null n: the shared domain if the database is
// uniform, or the per-null domain otherwise (nil if none was set). The
// returned slice must not be modified.
func (d *Database) Domain(n NullID) []string {
	if d.uniform {
		return d.uniDom
	}
	return d.doms[n]
}

// Nulls returns the distinct nulls occurring in the table, sorted by ID.
func (d *Database) Nulls() []NullID {
	if d.nullsCache == nil {
		out := make([]NullID, 0, len(d.nullRefs))
		for n := range d.nullRefs {
			out = append(out, n)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		d.nullsCache = out
	}
	return d.nullsCache
}

// HasNull reports whether null n occurs in the table.
func (d *Database) HasNull(n NullID) bool { return d.nullRefs[n] > 0 }

// Facts returns all facts of the table, in insertion order. The returned
// slice must not be modified.
func (d *Database) Facts() []Fact { return d.facts }

// FactsOf returns the facts over relation rel, in insertion order. The
// per-relation index is maintained by AddFact, so the call is O(1) instead
// of a scan over all facts. The returned slice must not be modified.
func (d *Database) FactsOf(rel string) []Fact { return d.byRel[rel] }

// Relations returns the names of the relations that hold facts, sorted.
// A relation emptied by RemoveFact is not listed, as in a database that
// never held it, so what is derived from the list (a schema, a route)
// does not depend on the table's history.
func (d *Database) Relations() []string {
	out := make([]string, 0, len(d.byRel))
	for r, facts := range d.byRel {
		if len(facts) > 0 {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// Arity returns the arity of relation rel, or 0 if the relation was never
// used in the table. An emptied relation keeps its arity, so AddFact
// still refuses another one.
func (d *Database) Arity(rel string) int { return d.arity[rel] }

// IsCodd reports whether the table is a Codd table, i.e. every null occurs
// at most once (counting multiple positions within one fact as multiple
// occurrences). AddFact and RemoveFact keep the count it reads, so the
// call is O(1).
func (d *Database) IsCodd() bool { return d.shared == 0 }

// Validate checks that every null occurring in the table has a domain
// (always true for uniform databases) and that no domain is empty while the
// null occurs in a fact with an empty domain being permitted (it simply
// yields zero valuations). It returns the first problem found.
func (d *Database) Validate() error {
	if d.uniform {
		return nil
	}
	for _, n := range d.Nulls() {
		if _, ok := d.doms[n]; !ok {
			return fmt.Errorf("core: null %s has no domain", n)
		}
	}
	return nil
}

// NumValuations returns the total number of valuations of the database: the
// product of the domain sizes of its nulls. It returns an error if some null
// has no domain.
func (d *Database) NumValuations() (*big.Int, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	total := big.NewInt(1)
	for _, n := range d.Nulls() {
		total.Mul(total, big.NewInt(int64(len(d.Domain(n)))))
	}
	return total, nil
}

// ForEachValuation enumerates every valuation of the database and calls fn
// with each, in the index order of ValuationSpace. The Valuation passed to
// fn is reused between calls; fn must copy it (Valuation.Clone) if it
// needs to retain it. Enumeration stops early if fn returns false. It
// returns an error if some null lacks a domain.
func (d *Database) ForEachValuation(fn func(Valuation) bool) error {
	s, err := d.ValuationSpace()
	if err != nil {
		return err
	}
	return s.Range(new(big.Int), s.size, fn)
}

// Apply returns the completion ν(D) of the database under valuation v: every
// null is replaced by its image and duplicate facts collapse (set
// semantics). Nulls missing from v cause a panic; use ForEachValuation or
// complete valuations.
func (d *Database) Apply(v Valuation) *Instance {
	inst := NewInstance()
	args := make([]string, 0, 8)
	for _, f := range d.facts {
		args = args[:0]
		for _, a := range f.Args {
			if a.IsNull() {
				c, ok := v[a.NullID()]
				if !ok {
					panic(fmt.Sprintf("core: valuation missing null %s", a.NullID()))
				}
				args = append(args, c)
			} else {
				args = append(args, a.Constant())
			}
		}
		inst.Add(f.Rel, args...)
	}
	return inst
}

// Clone returns a deep copy of the database.
func (d *Database) Clone() *Database {
	var c *Database
	if d.uniform {
		c = NewUniformDatabase(d.uniDom)
	} else {
		c = NewDatabase()
		for n, dom := range d.doms {
			c.doms[n] = append([]string(nil), dom...)
		}
	}
	for _, f := range d.facts {
		c.MustAddFact(f.Rel, f.Args...)
	}
	return c
}

// String renders the database: the domain declarations followed by one fact
// per line, in a stable order.
func (d *Database) String() string {
	var b strings.Builder
	if d.uniform {
		b.WriteString("uniform " + strings.Join(d.uniDom, " ") + "\n")
	} else {
		for _, n := range d.Nulls() {
			b.WriteString("dom " + n.String() + " " + strings.Join(d.doms[n], " ") + "\n")
		}
	}
	for _, f := range d.facts {
		b.WriteString(f.String() + "\n")
	}
	return b.String()
}
