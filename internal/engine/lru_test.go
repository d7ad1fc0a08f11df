package engine

import (
	"fmt"
	"testing"
)

// newCachedPlan returns a plan whose handle is set, as cachedPlan sets it
// before adding the plan.
func newCachedPlan(fp string) *Plan {
	p := &Plan{Fingerprint: fp}
	p.handle = PreparedQuery{plan: p}
	return p
}

// TestLRUOrder checks that the plan cache evicts its least recently used
// entry, that a lookup refreshes an entry, and that a handle handed out
// stays the evicted plan's own after its slot is reused for another plan.
func TestLRUOrder(t *testing.T) {
	c := newLRU(2)
	a, b, d := newCachedPlan("a"), newCachedPlan("b"), newCachedPlan("d")
	if c.add("a", a) || c.add("b", b) {
		t.Fatal("an add below capacity evicted")
	}
	ha, ok := c.get("a") // a is now the most recent
	if !ok || ha.plan != a {
		t.Fatalf("get(a) = %v, %v", ha, ok)
	}
	if !c.add("d", d) {
		t.Fatal("an add at capacity did not evict")
	}
	if _, ok := c.get("b"); ok {
		t.Error("b, the least recently used, was kept")
	}
	if h, ok := c.getBytes([]byte("d")); !ok || h.plan != d {
		t.Errorf("getBytes(d) = %v, %v", h, ok)
	}
	// a is the oldest now; its slot goes to e.
	if !c.add("e", newCachedPlan("e")) {
		t.Fatal("an add at capacity did not evict")
	}
	if _, ok := c.get("a"); ok {
		t.Error("a, the least recently used, was kept")
	}
	if ha.plan != a || ha.plan.Fingerprint != "a" {
		t.Errorf("a handle handed out before its slot was reused now names %q", ha.plan.Fingerprint)
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
}

// TestLRUAddAllocs holds an insertion into a full plan cache, which
// evicts, to no allocation: the evicted entry's slot is reused. The list
// of container/list made 2 per insertion, an element and an entry.
func TestLRUAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const size = 4
	keys := make([]string, size+1)
	plans := make([]*Plan, size+1)
	for i := range keys {
		keys[i] = fmt.Sprint("k", i)
		plans[i] = newCachedPlan(keys[i])
	}
	c := newLRU(size)
	for i := range size {
		c.add(keys[i], plans[i])
	}
	next := size // the one key the cache does not hold
	if got := testing.AllocsPerRun(100, func() {
		c.add(keys[next], plans[next])
		next = (next + 1) % len(keys)
	}); got != 0 {
		t.Errorf("add into a full cache: %.0f allocs, want 0", got)
	}
}
