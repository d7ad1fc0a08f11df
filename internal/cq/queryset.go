package cq

// QuerySet is a set of queries up to the order of their body atoms and of
// their comparisons, comparisons compared after Normalize: two members are
// the same when they have the same head, the same multiset of body atoms and
// the same multiset of normalised comparisons. Variable names are not
// canonicalised. It is the rewriting searches' candidate dedup.
//
// A member is found by an order-independent 64-bit hash and confirmed by a
// structural comparison, so a hash collision costs a comparison, never a
// candidate. Adding a query that is already present allocates nothing. The
// zero value is an empty set.
type QuerySet struct {
	members []setMember
	// index maps a hash to the newest member with it, once the set is too
	// big to scan.
	index map[uint64]int32
}

type setMember struct {
	q    *Query
	hash uint64
	prev int32 // the previous member with the same hash, or -1
}

// setScan is the size up to which Add scans the members instead of keeping
// an index.
const setScan = 16

// Add adds q unless the set holds the same query already, and reports
// whether it did. The set keeps q: it must not change afterwards.
func (s *QuerySet) Add(q *Query) bool { return s.add(q, q.setHash()) }

// add is Add with q's hash given.
func (s *QuerySet) add(q *Query, h uint64) bool {
	prev := int32(-1)
	if s.index == nil {
		for i := len(s.members) - 1; i >= 0; i-- {
			if s.members[i].hash == h {
				if sameQuery(s.members[i].q, q) {
					return false
				}
				if prev < 0 {
					prev = int32(i)
				}
			}
		}
	} else if i, ok := s.index[h]; ok {
		prev = i
		for ; i >= 0; i = s.members[i].prev {
			if sameQuery(s.members[i].q, q) {
				return false
			}
		}
	}
	s.members = append(s.members, setMember{q: q, hash: h, prev: prev})
	switch {
	case s.index != nil:
		s.index[h] = int32(len(s.members) - 1)
	case len(s.members) > setScan:
		s.index = make(map[uint64]int32, 2*len(s.members))
		for i, m := range s.members {
			s.index[m.hash] = int32(i)
		}
	}
	return true
}

// setHash hashes q's head, the multiset of its body atoms and the multiset
// of its normalised comparisons: the atoms' and comparisons' hashes are
// summed, so their order does not matter.
func (q *Query) setHash() uint64 {
	var body, comps uint64
	for _, a := range q.Body {
		body += mix64(hashAtom(a))
	}
	for _, c := range q.Comparisons {
		comps += mix64(hashComparison(c))
	}
	return mix64(hashAtom(q.Head)^mix64(body+uint64(len(q.Body)))) ^ mix64(comps+uint64(len(q.Comparisons))+1)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashAtom(a Atom) uint64 {
	h := hashString(fnvOffset, a.Pred)
	for _, t := range a.Args {
		h = hashTerm(h, t)
	}
	return h
}

// hashComparison hashes the normalised comparison (see sameComparison).
func hashComparison(c Comparison) uint64 {
	c = orient(c)
	if c.Op == Eq || c.Op == Ne {
		return (mix64(hashTerm(fnvOffset, c.Left)) + mix64(hashTerm(fnvOffset, c.Right))) ^ uint64(c.Op)
	}
	return hashTerm(hashTerm(fnvOffset^uint64(c.Op), c.Left), c.Right)
}

func hashTerm(h uint64, t Term) uint64 {
	h = (h ^ uint64(t.Kind+1)) * fnvPrime
	return hashString(h, t.Lex)
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // end of string
}

// mix64 is the SplitMix64 finaliser: it spreads every input bit over the
// output, so that sums of hashes do not collide along simple patterns.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// sameQuery reports whether a and b are the same query up to the order of
// body atoms and of comparisons.
func sameQuery(a, b *Query) bool {
	if !a.Head.Equal(b.Head) || len(a.Body) != len(b.Body) || len(a.Comparisons) != len(b.Comparisons) {
		return false
	}
	for _, x := range a.Body {
		if count(a.Body, x.Equal) != count(b.Body, x.Equal) {
			return false
		}
	}
	for _, x := range a.Comparisons {
		same := func(y Comparison) bool { return sameComparison(x, y) }
		if count(a.Comparisons, same) != count(b.Comparisons, same) {
			return false
		}
	}
	return true
}

// sameComparison reports c.Equal(d) without rendering terms: Gt and Ge
// compare as the flipped Lt and Le, and the sides of Eq and Ne as an
// unordered pair, which is the identity Normalize's orientation gives.
func sameComparison(c, d Comparison) bool {
	c, d = orient(c), orient(d)
	switch {
	case c.Op != d.Op:
		return false
	case c.Left == d.Left && c.Right == d.Right:
		return true
	default:
		return (c.Op == Eq || c.Op == Ne) && c.Left == d.Right && c.Right == d.Left
	}
}

// orient flips Gt and Ge to Lt and Le.
func orient(c Comparison) Comparison {
	if c.Op == Gt || c.Op == Ge {
		return Comparison{Left: c.Right, Op: c.Op.Flip(), Right: c.Left}
	}
	return c
}

func count[T any](s []T, eq func(T) bool) int {
	n := 0
	for _, x := range s {
		if eq(x) {
			n++
		}
	}
	return n
}
