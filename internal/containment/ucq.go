package containment

import (
	"slices"

	"repro/internal/constraints"
	"repro/internal/cq"
)

// ContainedInUnion reports whether q ⊑ u for a union of conjunctive
// queries. For pure conjunctive queries this uses the Sagiv–Yannakakis
// theorem: q ⊑ ∪ᵢ Qᵢ iff q ⊑ Qᵢ for some i. With comparison predicates the
// per-disjunct test is no longer complete (different linearisations of q
// may be covered by different disjuncts), so the complete linearisation
// test is used instead.
func ContainedInUnion(q *cq.Query, u *cq.Union) bool {
	if u.Len() == 0 {
		return false
	}
	pure := len(q.Comparisons) == 0
	if pure {
		for _, m := range u.Queries {
			pure = pure && len(m.Comparisons) == 0
		}
	}
	if pure {
		var s Search
		for _, m := range u.Queries {
			if s.contained(q, Prepare(m)) {
				return true
			}
		}
		return false
	}
	return containedInUnionComplete(q, u)
}

// containedInUnionComplete: q ⊑ u iff every linearisation of q's terms
// (extended with the constants of u's members) consistent with q's
// comparisons is covered by some member mapping.
func containedInUnionComplete(q *cq.Query, u *cq.Union) bool {
	base := constraints.NewSet(q.Comparisons)
	if !base.Satisfiable() {
		return true
	}
	var domain []cq.Term
	domain = append(domain, q.Vars()...)
	domain = append(domain, q.Constants()...)
	for _, m := range u.Queries {
		domain = append(domain, m.Constants()...)
	}
	var s Search
	members := make([]*Prepared, len(u.Queries)) // each a mapping source for every linearisation
	for i, m := range u.Queries {
		members[i] = Prepare(m)
	}
	covered := true
	constraints.EnumerateLinearizations(domain, base, func(l constraints.Linearization) bool {
		lam := l.Set()
		merged := l.MergeSubst().ApplyQuery(q)
		okForThis := false
		for i, m := range u.Queries {
			s.mappings(members[i], merged, func(mp Mapping) bool {
				for _, c := range m.Comparisons {
					if !lam.Implies(mp.ApplyComparison(c)) {
						return true
					}
				}
				okForThis = true
				return false
			})
			if okForThis {
				break
			}
		}
		if !okForThis {
			covered = false
			return false
		}
		return true
	})
	return covered
}

// UnionContained reports whether u ⊑ q: every member of the union is
// contained in q.
func UnionContained(u *cq.Union, q *cq.Query) bool {
	var s Search
	p := Prepare(q)
	for _, m := range u.Queries {
		if !s.contained(m, p) {
			return false
		}
	}
	return true
}

// UnionContainedInUnion reports whether u1 ⊑ u2.
func UnionContainedInUnion(u1, u2 *cq.Union) bool {
	for _, m := range u1.Queries {
		if !ContainedInUnion(m, u2) {
			return false
		}
	}
	return true
}

// MinimizeUnion removes members subsumed by other members and minimises
// each surviving member. The result is equivalent to the input. The input is
// never written; a member that is minimal already is kept as it is, so the
// result's members, like Minimize's result, must not be written.
func MinimizeUnion(u *cq.Union) *cq.Union {
	var s Search
	return s.MinimizeUnion(u)
}

// MinimizeUnion is the package-level MinimizeUnion on s's scratch: every
// member is numbered at most once however many pairs it is tested in, into
// arrays s keeps, and a pair whose members share no predicate is rejected
// before anything is set up. It never consults the memo.
func (s *Search) MinimizeUnion(u *cq.Union) *cq.Union {
	s.live()
	out := &cq.Union{Queries: make([]*cq.Query, 0, u.Len())}
	s.kept = slices.Grow(s.kept[:0], u.Len())[:u.Len()]
	kept := s.kept
	for i, m := range u.Queries {
		kept[i].reset(s.Minimize(m))
	}
	for i := range kept {
		subsumed := false
		for j := range kept {
			if i == j {
				continue
			}
			if s.contained(kept[i].q, &kept[j]) {
				// Break ties deterministically: drop the later of two
				// mutually contained members.
				if !s.contained(kept[j].q, &kept[i]) || j < i {
					subsumed = true
					break
				}
			}
		}
		if !subsumed {
			out.Add(kept[i].q)
		}
	}
	for i := range kept {
		kept[i].reset(nil)
	}
	return out
}
