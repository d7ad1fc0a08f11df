package cq

import (
	"math/rand"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// variant returns q with its body atoms and comparisons shuffled and every
// comparison written the other way round: the same member of a QuerySet.
func variant(rng *rand.Rand, q *Query) *Query {
	v := q.Clone()
	rng.Shuffle(len(v.Body), func(i, j int) { v.Body[i], v.Body[j] = v.Body[j], v.Body[i] })
	rng.Shuffle(len(v.Comparisons), func(i, j int) { v.Comparisons[i], v.Comparisons[j] = v.Comparisons[j], v.Comparisons[i] })
	for i, c := range v.Comparisons {
		v.Comparisons[i] = Comparison{Left: c.Right, Op: c.Op.Flip(), Right: c.Left}
	}
	return v
}

// nearVariant returns a variant of q that is a different member of a
// QuerySet: one body atom repeated, or one comparison with its sides
// swapped but its operator kept, or one comparison dropped.
func nearVariant(rng *rand.Rand, q *Query) *Query {
	v := variant(rng, q)
	switch {
	case len(v.Comparisons) > 0 && rng.Intn(2) == 0:
		c := &v.Comparisons[rng.Intn(len(v.Comparisons))]
		c.Left, c.Right = c.Right, c.Left
	case len(v.Comparisons) > 0 && rng.Intn(2) == 0:
		v.Comparisons = v.Comparisons[1:]
	case len(v.Body) > 0:
		v.Body = append(v.Body, v.Body[rng.Intn(len(v.Body))])
	}
	return v
}

// TestQuerySetMatchesCanonicalString checks the set against the text
// identity the searches used to deduplicate by: a query is new exactly when
// its CanonicalString is. The stream mixes fresh queries, reordered copies
// and near copies; the second pass forces every member onto one hash, so
// only the structural comparison tells them apart.
func TestQuerySetMatchesCanonicalString(t *testing.T) {
	for _, collide := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 200; trial++ {
			var set QuerySet
			seen := make(map[string]bool)
			var added []*Query
			for range 60 {
				q := randomQuery(rng)
				if len(added) > 0 {
					switch rng.Intn(3) {
					case 0:
						q = variant(rng, added[rng.Intn(len(added))])
					case 1:
						q = nearVariant(rng, added[rng.Intn(len(added))])
					}
				}
				h := q.setHash()
				if collide {
					h = 42
				}
				key := q.CanonicalString()
				if got, want := set.add(q, h), !seen[key]; got != want {
					t.Fatalf("collide=%v: Add(%s) = %v, CanonicalString says %v", collide, q, got, want)
				}
				seen[key] = true
				added = append(added, q)
			}
			if len(set.members) != len(seen) {
				t.Fatalf("set holds %d members, %d distinct texts", len(set.members), len(seen))
			}
		}
	}
}

// TestQuerySetReAddAllocs is the dedup budget: a candidate the search has
// already tried costs no allocation.
func TestQuerySetReAddAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, n := range []int{3, 3 * setScan} {
		var set QuerySet
		rng := rand.New(rand.NewSource(4))
		var qs []*Query
		for len(qs) < n {
			if q := randomQuery(rng); set.Add(q) {
				qs = append(qs, q)
			}
		}
		again := variant(rng, MustParseQuery("q(X) :- r(X,'a b'), e(X,Y), Y != 'a b', X < 3"))
		set.Add(again)
		allocs := testing.AllocsPerRun(100, func() {
			for _, q := range qs {
				set.Add(q)
			}
			set.Add(again)
		})
		if allocs != 0 {
			t.Errorf("%d members: re-adding costs %.1f allocs, want 0", n, allocs)
		}
	}
}
