package engine

// lruCache is a bounded least-recently-used map from template fingerprint
// to the plan's handle. It is not self-locking; the Engine serialises
// access under its mutex.
//
// The entries are one array of max slots threaded on an intrusive list
// by index, so an insertion allocates nothing: until the array is full it
// takes the next slot, and after that it reuses the evicted one. A slot
// holds the plan, not its handle: the handle a lookup hands out is the
// plan's own (Plan.handle), which a concurrent Exec may still hold when
// the slot is reused for another plan.
type lruCache struct {
	slots []lruSlot
	items map[string]int32 // key → slot
	// head is the most recently used slot and tail the least; -1 while
	// the cache is empty.
	head, tail int32
}

type lruSlot struct {
	key        string
	plan       *Plan
	prev, next int32 // towards head and tail, -1 at the ends
}

func newLRU(max int) *lruCache {
	return &lruCache{slots: make([]lruSlot, 0, max), items: make(map[string]int32, max), head: -1, tail: -1}
}

func (c *lruCache) get(key string) (*PreparedQuery, bool) {
	i, ok := c.items[key]
	return c.touch(i, ok)
}

// getBytes is get for a key held in bytes: indexing the map with
// string(key) does not allocate.
func (c *lruCache) getBytes(key []byte) (*PreparedQuery, bool) {
	i, ok := c.items[string(key)]
	return c.touch(i, ok)
}

func (c *lruCache) touch(i int32, ok bool) (*PreparedQuery, bool) {
	if !ok {
		return nil, false
	}
	c.unlink(i)
	c.pushFront(i)
	return &c.slots[i].plan.handle, true
}

// add inserts plan under a key the cache does not hold — cachedPlan adds
// only after a miss, under the single flight for that key — and reports
// whether the oldest entry was evicted to make room. plan.handle must be
// set.
func (c *lruCache) add(key string, plan *Plan) bool {
	if cap(c.slots) == 0 {
		return true
	}
	evicted := len(c.slots) == cap(c.slots)
	var i int32
	if evicted {
		i = c.tail
		c.unlink(i)
		delete(c.items, c.slots[i].key)
	} else {
		i = int32(len(c.slots))
		c.slots = c.slots[:i+1]
	}
	c.slots[i].key, c.slots[i].plan = key, plan
	c.items[key] = i
	c.pushFront(i)
	return evicted
}

// unlink takes slot i off the list.
func (c *lruCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront puts slot i, off the list, at its head.
func (c *lruCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *lruCache) len() int { return len(c.items) }
