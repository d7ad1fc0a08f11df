package server

// Per-namespace session table. A prepared handle is the template
// fingerprint of the prepared query, so every client preparing the same
// query shape shares one entry — the HTTP analogue of the engine's
// template-keyed plan LRU, and the reason a prepare/exec stream over the
// wire pays the rewriting search once. Entries hold their PreparedQuery
// alive (a handle survives engine-LRU eviction) and are bounded by a TTL
// plus an LRU cap, so an abandoned session cannot pin plans forever.

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/engine"
)

// SessionStats counts session-table outcomes, surfaced under /v1/stats.
type SessionStats struct {
	// Prepared counts prepare calls that built a new session entry.
	Prepared uint64 `json:"prepared"`
	// Reused counts prepare calls answered by an existing entry.
	Reused uint64 `json:"reused"`
	// Hits counts exec calls that found their handle.
	Hits uint64 `json:"hits"`
	// Misses counts exec calls whose handle was unknown or expired.
	Misses uint64 `json:"misses"`
	// EvictedLRU and EvictedTTL count entries dropped by the cap and the
	// TTL respectively.
	EvictedLRU uint64 `json:"evicted_lru"`
	EvictedTTL uint64 `json:"evicted_ttl"`
	// Live is the current number of entries.
	Live int `json:"live"`
}

// session is one prepared handle.
type session struct {
	handle   string
	pq       *engine.PreparedQuery
	lastUsed time.Time
	elem     *list.Element // position in the LRU list (front = most recent)
}

// sessionTable maps handles to prepared queries with TTL + LRU eviction.
// Safe for concurrent use.
type sessionTable struct {
	max int
	ttl time.Duration
	now func() time.Time // test hook

	mu    sync.Mutex
	m     map[string]*session
	lru   *list.List // of *session
	stats SessionStats
}

// newSessionTable builds a table; max <= 0 means 1024 entries, ttl <= 0
// means 15 minutes.
func newSessionTable(max int, ttl time.Duration) *sessionTable {
	if max <= 0 {
		max = 1024
	}
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	return &sessionTable{
		max: max,
		ttl: ttl,
		now: time.Now,
		m:   make(map[string]*session),
		lru: list.New(),
	}
}

// put stores (or refreshes) the session for a handle, evicting expired
// entries and then the least-recently-used past the cap. It reports whether
// the handle was newly created.
func (t *sessionTable) put(handle string, pq *engine.PreparedQuery) bool {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(now)
	if s, ok := t.m[handle]; ok {
		s.lastUsed = now
		t.lru.MoveToFront(s.elem)
		t.stats.Reused++
		return false
	}
	s := &session{handle: handle, pq: pq, lastUsed: now}
	s.elem = t.lru.PushFront(s)
	t.m[handle] = s
	t.stats.Prepared++
	for len(t.m) > t.max {
		oldest := t.lru.Back()
		t.dropLocked(oldest.Value.(*session))
		t.stats.EvictedLRU++
	}
	return true
}

// get returns the prepared query for a handle, refreshing its recency; ok
// is false when the handle is unknown or its entry expired. The handle comes
// as the bytes the request decoder found it in: indexing the map with
// string(handle) does not allocate.
func (t *sessionTable) get(handle []byte) (*engine.PreparedQuery, bool) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[string(handle)]
	if ok && now.Sub(s.lastUsed) > t.ttl {
		t.dropLocked(s)
		t.stats.EvictedTTL++
		ok = false
	}
	if !ok {
		t.stats.Misses++
		return nil, false
	}
	s.lastUsed = now
	t.lru.MoveToFront(s.elem)
	t.stats.Hits++
	return s.pq, true
}

// expireLocked drops every entry idle past the TTL. Callers hold t.mu.
func (t *sessionTable) expireLocked(now time.Time) {
	for {
		oldest := t.lru.Back()
		if oldest == nil {
			break
		}
		s := oldest.Value.(*session)
		if now.Sub(s.lastUsed) <= t.ttl {
			break
		}
		t.dropLocked(s)
		t.stats.EvictedTTL++
	}
}

// dropLocked removes one session. Callers hold t.mu.
func (t *sessionTable) dropLocked(s *session) {
	delete(t.m, s.handle)
	t.lru.Remove(s.elem)
}

// snapshot copies the counters.
func (t *sessionTable) snapshot() SessionStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats
	st.Live = len(t.m)
	return st
}
