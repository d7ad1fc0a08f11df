package server

import (
	"testing"
	"time"
)

// fakeClock drives the session table's time hook.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newClockedTable(max int, ttl time.Duration) (*sessionTable, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	tbl := newSessionTable(max, ttl)
	tbl.now = clk.now
	return tbl, clk
}

func TestSessionTableLRUEviction(t *testing.T) {
	tbl, _ := newClockedTable(2, time.Hour)
	if !tbl.put("a", nil) || !tbl.put("b", nil) {
		t.Fatal("fresh puts should be new")
	}
	if _, ok := tbl.get([]byte("a")); !ok { // refresh a; b is now the LRU victim
		t.Fatal("a missing")
	}
	if !tbl.put("c", nil) {
		t.Fatal("c should be new")
	}
	if _, ok := tbl.get([]byte("b")); ok {
		t.Fatal("b should have been LRU-evicted")
	}
	if _, ok := tbl.get([]byte("a")); !ok {
		t.Fatal("a should have survived")
	}
	st := tbl.snapshot()
	if st.EvictedLRU != 1 || st.Live != 2 || st.Prepared != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSessionTableTTLExpiry(t *testing.T) {
	tbl, clk := newClockedTable(8, time.Minute)
	tbl.put("a", nil)
	clk.advance(30 * time.Second)
	if _, ok := tbl.get([]byte("a")); !ok {
		t.Fatal("a expired early")
	}
	// The get refreshed the entry; another 61s pushes it past the TTL.
	clk.advance(61 * time.Second)
	if _, ok := tbl.get([]byte("a")); ok {
		t.Fatal("a should have TTL-expired")
	}
	st := tbl.snapshot()
	if st.EvictedTTL != 1 || st.Live != 0 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// put also sweeps expired entries.
	tbl.put("b", nil)
	clk.advance(2 * time.Minute)
	tbl.put("c", nil)
	if st := tbl.snapshot(); st.Live != 1 || st.EvictedTTL != 2 {
		t.Fatalf("post-sweep stats = %+v", st)
	}
}

func TestSessionTableReuse(t *testing.T) {
	tbl, _ := newClockedTable(8, time.Minute)
	if !tbl.put("h", nil) {
		t.Fatal("first put should be new")
	}
	if tbl.put("h", nil) {
		t.Fatal("second put should reuse")
	}
	st := tbl.snapshot()
	if st.Prepared != 1 || st.Reused != 1 || st.Live != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
