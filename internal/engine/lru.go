package engine

import "container/list"

// lruCache is a bounded least-recently-used map from template fingerprint
// to the plan's handle. It is not self-locking; the Engine serialises
// access under its mutex.
type lruCache struct {
	max   int
	order *list.List // front = most recent
	items map[string]*list.Element
}

// lruEntry holds its handle by value, so a lookup hands out a pointer into
// the entry without allocating. The handle is never written once cached: a
// concurrent Exec may hold that pointer.
type lruEntry struct {
	key string
	pq  PreparedQuery // args empty
}

func newLRU(max int) *lruCache {
	return &lruCache{max: max, order: list.New(), items: make(map[string]*list.Element, max)}
}

func (c *lruCache) get(key string) (*PreparedQuery, bool) { return c.touch(c.items[key]) }

// getBytes is get for a key held in bytes: indexing the map with
// string(key) does not allocate.
func (c *lruCache) getBytes(key []byte) (*PreparedQuery, bool) {
	return c.touch(c.items[string(key)])
}

func (c *lruCache) touch(el *list.Element) (*PreparedQuery, bool) {
	if el == nil {
		return nil, false
	}
	c.order.MoveToFront(el)
	return &el.Value.(*lruEntry).pq, true
}

// add inserts or refreshes a handle and reports whether an older entry was
// evicted to make room. A refresh replaces the entry rather than writing
// the cached handle.
func (c *lruCache) add(key string, pq PreparedQuery) bool {
	if el, ok := c.items[key]; ok {
		el.Value = &lruEntry{key: key, pq: pq}
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, pq: pq})
	if c.order.Len() <= c.max {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.items, oldest.Value.(*lruEntry).key)
	return true
}

func (c *lruCache) len() int { return c.order.Len() }
