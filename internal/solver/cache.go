package solver

import (
	"container/list"
	"sync"

	"github.com/incompletedb/incompletedb/internal/classify"
	"github.com/incompletedb/incompletedb/internal/cq"
	"github.com/incompletedb/incompletedb/internal/plan"
	"github.com/incompletedb/incompletedb/internal/sweep"
)

// lru is a concurrency-safe LRU keyed by string. It backs both caches of
// the session layer: the solver-wide result cache (the cache that used
// to live inside internal/server — moving it into the solver makes every
// entry point share one amortization layer) and the per-session plan
// cache. Values are treated as immutable once inserted; readers of
// shared mutable values must copy before annotating.
type lru[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the cached value for key, refreshing its recency.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts (or refreshes) key → val, evicting the least recently used
// entry when the cache is full.
func (c *lru[V]) add(key string, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// len returns the number of cached entries.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// purge removes every entry the predicate marks stale and returns how
// many were dropped. The predicate runs under the cache lock — it may
// mutate the values it keeps (this is how plan entries are patched in
// place during delta invalidation) but must not call back into the cache.
func (c *lru[V]) purge(stale func(key string, val V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*lruEntry[V])
		if stale(e.key, e.val) {
			c.ll.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// resultCache is the solver-wide LRU of finished results, keyed by
// canonical fingerprint. Stored results carry payload-stripped plans
// (plan.StripPayloads), so retention is bounded by plan descriptions,
// not compiled engines or parsed databases.
type resultCache = lru[*Result]

func newResultCache(max int) *resultCache { return newLRU[*Result](max) }

// planCache is a session's LRU of compiled plans, keyed by (canonical
// query, kind). Unlike the result cache these entries DO hold compiled
// engines — that is the point of a session — so the cache is bounded to
// keep a long-lived session with endless ad-hoc queries from growing
// without limit. Each entry carries the invalidation metadata delta
// maintenance needs: the query's relation signature and the plan shape
// flags that decide between patching the entry in place and dropping it.
type planCache = lru[*planEntry]

// defaultPlanCacheSize bounds how many compiled plans one PreparedDB
// retains; the least recently used plan (and its engine) is dropped and
// simply recompiled if asked for again.
const defaultPlanCacheSize = 256

func newPlanCache() *planCache { return newLRU[*planEntry](defaultPlanCacheSize) }

// planEntry is one cached plan plus what delta invalidation needs to know
// about it without re-walking the DAG on every mutation.
type planEntry struct {
	plan *plan.Plan
	// engines are the compiled sweep payloads of the plan's OpSweep nodes,
	// patched in place when a delta permits.
	engines []*sweep.Engine
	// sig is the set of relation names the query mentions; sigOK is false
	// for opaque queries (cq.Func), whose relevant relations are unknown.
	sig   map[string]bool
	sigOK bool
	kind  classify.CountingKind
	// hasCylinder / hasUniformComp flag plan nodes whose prebuilt payloads
	// or applicability preconditions are sensitive to deltas a sweep engine
	// could otherwise absorb.
	hasFactor, hasCylinder, hasUniformComp bool
}

// newPlanEntry walks a freshly built plan once and records the
// invalidation metadata alongside it.
func newPlanEntry(pl *plan.Plan, q cq.Query, kind classify.CountingKind) *planEntry {
	e := &planEntry{plan: pl, kind: kind}
	e.sig, e.sigOK = cq.Signature(q)
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		switch n.Op {
		case plan.OpFactor, plan.OpFactorUnion:
			e.hasFactor = true
		case plan.OpCylinderIE:
			e.hasCylinder = true
		case plan.OpUniformComp:
			e.hasUniformComp = true
		case plan.OpSweep:
			if n.Engine != nil {
				e.engines = append(e.engines, n.Engine)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(pl.Root)
	return e
}
