package solver

import (
	"container/list"
	"sync"

	"github.com/incompletedb/incompletedb/internal/plan"
)

// lru is a concurrency-safe LRU keyed by string. It backs the caches of
// the session layer: the solver-wide result cache (the cache that used
// to live inside internal/server — moving it into the solver makes every
// entry point share one amortization layer), the solver's text memo
// (text.go) and the per-session plan cache. Values are treated as immutable once inserted; readers of
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

// purge empties the cache and returns how many entries it dropped.
func (c *lru[V]) purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := c.ll.Len()
	c.ll.Init()
	clear(c.items)
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
// without limit. Its plans were all built at the session's current
// database version: a write empties it.
type planCache = lru[*plan.Plan]

// defaultPlanCacheSize bounds how many compiled plans one PreparedDB
// retains; the least recently used plan (and its engine) is dropped and
// simply recompiled if asked for again.
const defaultPlanCacheSize = 256

func newPlanCache() *planCache { return newLRU[*plan.Plan](defaultPlanCacheSize) }
