package sweep

import "fmt"

// Interner assigns dense uint32 IDs to strings, so the hot sweep loops can
// compare and hash values as machine words instead of strings. IDs are
// assigned in first-intern order starting at 0 and never reused, so an
// Interner round-trips: Resolve(Intern(s)) == s for every interned s.
type Interner struct {
	ids  map[string]uint32
	strs []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return newInterner(0) }

// newInterner returns an empty interner that holds hint strings without
// growing.
func newInterner(hint int) *Interner {
	return &Interner{ids: make(map[string]uint32, hint), strs: make([]string, 0, hint)}
}

// Intern returns the ID of s, assigning the next free ID on first sight.
func (in *Interner) Intern(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint32(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// Lookup returns the ID of s if it was interned before.
func (in *Interner) Lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Resolve returns the string with the given ID. It panics if the ID was
// never assigned.
func (in *Interner) Resolve(id uint32) string {
	if int(id) >= len(in.strs) {
		panic(fmt.Sprintf("sweep: resolve of unknown intern id %d (have %d)", id, len(in.strs)))
	}
	return in.strs[id]
}

// Len returns the number of interned strings.
func (in *Interner) Len() int { return len(in.strs) }
