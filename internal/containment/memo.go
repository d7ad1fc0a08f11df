package containment

import "sync"

// Memo caches containment decisions keyed by the canonical fingerprints of
// the two queries (cq.Fingerprint), so that repeated checks over
// α-equivalent query pairs are answered without re-running the exponential
// homomorphism search. Containment is invariant under variable renaming and
// subgoal reordering, which is exactly the equivalence the fingerprint
// quotients by, so a hit is always sound.
//
// A Search consults the Memo in its Memo field. A Memo is safe for
// concurrent use, so Searches on several goroutines may share one.
type Memo struct {
	mu        sync.Mutex
	contained map[memoKey]bool
	hits      uint64
	misses    uint64
}

type memoKey struct {
	sub, sup string
}

// NewMemo returns an empty containment memo.
func NewMemo() *Memo {
	return &Memo{contained: make(map[memoKey]bool)}
}

// lookup returns the cached decision for key, counting a hit when there is
// one.
func (m *Memo) lookup(key memoKey) (v, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok = m.contained[key]
	if ok {
		m.hits++
	}
	return v, ok
}

// store records a decision computed after a failed lookup, counting the
// miss.
func (m *Memo) store(key memoKey, v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.contained[key] = v
	m.misses++
}

// Stats returns the hit and miss counts accumulated so far.
func (m *Memo) Stats() (hits, misses uint64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}
