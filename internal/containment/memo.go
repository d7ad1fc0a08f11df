package containment

import (
	"sync"

	"repro/internal/cq"
)

// Memo caches containment decisions keyed by the canonical fingerprints of
// the two queries (cq.Fingerprint), so that repeated checks over
// α-equivalent query pairs are answered without re-running the exponential
// homomorphism search. Containment is invariant under variable renaming and
// subgoal reordering, which is exactly the equivalence the fingerprint
// quotients by, so a hit is always sound.
//
// A Memo is safe for concurrent use. A nil *Memo is valid and simply
// delegates to the unmemoised functions.
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

// Contained reports q2 ⊑ q1, consulting and populating the memo.
func (m *Memo) Contained(q2, q1 *cq.Query) bool {
	s := Search{Memo: m}
	return s.Contained(Prepare(q2), Prepare(q1))
}

// Equivalent reports q1 ≡ q2 via two memoised containment checks.
func (m *Memo) Equivalent(q1, q2 *cq.Query) bool {
	s := Search{Memo: m}
	return s.Equivalent(Prepare(q1), Prepare(q2))
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

// Len returns the number of cached decisions.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.contained)
}
