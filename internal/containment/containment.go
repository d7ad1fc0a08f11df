package containment

import (
	"slices"

	"repro/internal/constraints"
	"repro/internal/cq"
)

// Contained reports whether q2 ⊑ q1, i.e. q2's answers are a subset of q1's
// on every database. For pure conjunctive queries this is the Chandra–Merlin
// containment-mapping test; when either query carries comparison predicates
// the complete linearisation test is used (exponential in the number of
// terms, per the paper's lower bound — see ContainedSound for the fast
// incomplete variant).
func Contained(q2, q1 *cq.Query) bool {
	var s Search
	return s.contained(q2, Prepare(q1))
}

// Contained reports q2 ⊑ q1 like the package-level Contained, consulting and
// populating s.Memo when there is one.
func (s *Search) Contained(q2, q1 *Prepared) bool {
	m := s.Memo
	if m == nil {
		return s.contained(q2.q, q1)
	}
	key := memoKey{sub: q2.fingerprint(), sup: q1.fingerprint()}
	if v, ok := m.lookup(key); ok {
		return v
	}
	v := s.contained(q2.q, q1)
	m.store(key, v)
	return v
}

// Equivalent reports q1 ≡ q2 by two Contained tests.
func (s *Search) Equivalent(q1, q2 *Prepared) bool {
	return s.Contained(q1, q2) && s.Contained(q2, q1)
}

// contained is the unmemoised test for q2 ⊑ p1. Only the containing query is
// a mapping source, so only it is ever numbered.
func (s *Search) contained(q2 *cq.Query, p1 *Prepared) bool {
	q1 := p1.q
	if len(q1.Comparisons) == 0 {
		if len(q2.Comparisons) == 0 {
			return s.Maps(p1, q2)
		}
		// q1 is comparison-free, so q2's comparisons matter only through
		// the equalities they force and their satisfiability: merge
		// provably-equal terms of q2, then run the pure mapping test.
		// This avoids the exponential linearisation enumeration.
		norm, sat := mergeForcedEqualities(q2)
		if !sat {
			return true
		}
		return s.Maps(p1, norm)
	}
	if SemiInterval(q1) {
		// Klug's tractable case: when the containing query's comparisons
		// are all variable-vs-constant (semi-interval), the single-mapping
		// test is complete — the incompleteness witnesses all need
		// variable-to-variable comparisons in the container.
		return s.containedSound(q2, p1)
	}
	return s.containedComplete(q2, p1)
}

// SemiInterval reports whether every comparison of q compares a variable
// with a constant (or two constants) — the paper's tractable comparison
// fragment for the containing query.
func SemiInterval(q *cq.Query) bool {
	for _, c := range q.Comparisons {
		if c.Left.IsVar() && c.Right.IsVar() {
			return false
		}
	}
	return true
}

// mergeForcedEqualities rewrites q so that terms its comparisons force to
// be equal are syntactically identified (variables are replaced by their
// representative; a class containing a constant uses the constant). The
// second result is false when q's comparisons are unsatisfiable.
func mergeForcedEqualities(q *cq.Query) (*cq.Query, bool) {
	set := constraints.NewSet(q.Comparisons)
	if !set.Satisfiable() {
		return nil, false
	}
	s := cq.NewSubst()
	terms := set.Terms()
	for i, a := range terms {
		if !a.IsVar() {
			continue
		}
		for j, b := range terms {
			if i == j {
				continue
			}
			if b.IsVar() && j > i {
				continue // one direction suffices for var-var pairs
			}
			if set.Implies(cq.Comparison{Left: a, Op: cq.Eq, Right: b}) {
				s[a.Lex] = b
				break
			}
		}
	}
	if len(s) == 0 {
		return q, true
	}
	return s.Resolved().ApplyQuery(q), true
}

// ContainedSound is a sound but incomplete test for q2 ⊑ q1 in the presence
// of comparisons: it searches for a single containment mapping μ from q1 to
// q2 such that q2's comparisons imply μ(q1's comparisons). It runs in time
// polynomial in the number of mappings examined. A true answer is always
// correct; false may be a false negative (the complete test may still
// succeed by combining different mappings on different linearisations).
func ContainedSound(q2, q1 *cq.Query) bool {
	var s Search
	return s.containedSound(q2, Prepare(q1))
}

func (s *Search) containedSound(q2 *cq.Query, p1 *Prepared) bool {
	q1 := p1.q
	c2 := constraints.NewSet(q2.Comparisons)
	if !c2.Satisfiable() {
		return true // q2 is empty on every database
	}
	found := false
	s.mappings(p1, q2, func(m Mapping) bool {
		ext := c2.Clone()
		ok := true
		for _, c := range q1.Comparisons {
			if !ext.Implies(m.ApplyComparison(c)) {
				ok = false
				break
			}
		}
		if ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// ContainedComplete is the complete test for q2 ⊑ q1 with comparison
// predicates (Klug / van der Meyden): q2 ⊑ q1 iff for every total ordering
// (linearisation) λ of q2's terms — extended with the constants of q1 —
// that is consistent with q2's comparisons, there is a containment mapping
// μ from q1 to q2 with λ ⊨ μ(q1's comparisons). The number of
// linearisations is exponential in the number of terms; the paper shows
// this is unavoidable in general (Π₂ᵖ-hardness of containment).
func ContainedComplete(q2, q1 *cq.Query) bool {
	var s Search
	return s.containedComplete(q2, Prepare(q1))
}

func (s *Search) containedComplete(q2 *cq.Query, p1 *Prepared) bool {
	q1 := p1.q
	base := constraints.NewSet(q2.Comparisons)
	if !base.Satisfiable() {
		return true
	}
	if len(q1.Comparisons) == 0 && len(q2.Comparisons) == 0 {
		return s.Maps(p1, q2)
	}
	// The linearisation domain: q2's variables and constants plus the
	// constants of q1 (mappings send q1's comparison terms into this set).
	var domain []cq.Term
	domain = append(domain, q2.Vars()...)
	domain = append(domain, q2.Constants()...)
	domain = append(domain, q1.Constants()...)

	covered := true
	constraints.EnumerateLinearizations(domain, base, func(l constraints.Linearization) bool {
		lam := l.Set()
		// Identify the terms this linearisation declares equal: the
		// canonical database of q2 under λ has them merged, so the
		// mapping search must target the merged query.
		merged := l.MergeSubst().ApplyQuery(q2)
		okForThis := false
		s.mappings(p1, merged, func(m Mapping) bool {
			for _, c := range q1.Comparisons {
				if !lam.Implies(m.ApplyComparison(c)) {
					return true // try next mapping
				}
			}
			okForThis = true
			return false
		})
		if !okForThis {
			covered = false
			return false // stop: found an uncovered linearisation
		}
		return true
	})
	return covered
}

// Equivalent reports whether q1 ≡ q2 (mutual containment, exact test).
func Equivalent(q1, q2 *cq.Query) bool {
	var s Search
	return s.Equivalent(Prepare(q1), Prepare(q2))
}

// Minimize returns an equivalent query with a minimal body (the core): no
// body atom can be removed without changing the query's meaning, and no
// comparison is implied by the remaining ones. By Chandra–Merlin the result
// is unique up to variable renaming for pure conjunctive queries. The input
// is never written. When nothing is dropped the result is the input itself,
// and otherwise a new query that shares the input's atoms and terms; either
// way it must not be written.
func Minimize(q *cq.Query) *cq.Query {
	var s Search
	return s.Minimize(q)
}

// Minimize is the package-level Minimize on s's scratch, returning q itself
// when q is minimal already; the result is never s's scratch. It never
// consults the memo.
func (s *Search) Minimize(q *cq.Query) *cq.Query {
	cur := q // copied on the first drop
	// Drop redundant body atoms one at a time. Removing an atom weakens
	// the query (cur ⊑ candidate always holds), so the atom is redundant
	// iff candidate ⊑ cur. The candidate is assembled in s.cut and the
	// container numbered in s.min, so an atom that has to stay costs no
	// allocation.
	for changed := true; changed; {
		changed = false
		s.min.reset(cur)
		for i := range cur.Body {
			if len(cur.Body) == 1 {
				break // keep safety: at least one subgoal
			}
			s.cut.Head, s.cut.Comparisons = cur.Head, cur.Comparisons
			s.cut.Body = append(append(s.cut.Body[:0], cur.Body[:i]...), cur.Body[i+1:]...)
			if !s.cut.Valid() {
				continue // removal would make the query unsafe
			}
			if s.contained(&s.cut, &s.min) {
				if cur == q {
					cur = &cq.Query{Head: q.Head, Body: slices.Clone(s.cut.Body), Comparisons: q.Comparisons}
				} else {
					cur.Body = append(cur.Body[:i], cur.Body[i+1:]...)
				}
				changed = true
				break
			}
		}
	}
	// Drop comparisons implied by the rest.
	for i := 0; i < len(cur.Comparisons); {
		s.rest = append(append(s.rest[:0], cur.Comparisons[:i]...), cur.Comparisons[i+1:]...)
		if !constraints.NewSet(s.rest).Implies(cur.Comparisons[i]) {
			i++
			continue
		}
		if cur == q {
			cur = &cq.Query{Head: q.Head, Body: q.Body}
		}
		cur.Comparisons = slices.Clone(s.rest)
	}
	s.min.reset(nil)
	return cur
}

// Freeze produces the canonical database of q: each variable is replaced by
// a distinguished fresh constant. It returns the frozen body facts and the
// frozen head atom. The canonical database is the classical tool behind the
// containment-mapping theorem and is used by tests and the evaluator.
func Freeze(q *cq.Query) (facts []cq.Atom, head cq.Atom) {
	s := cq.NewSubst()
	for _, v := range q.Vars() {
		s[v.Lex] = cq.Const("⟨" + v.Lex + "⟩") // ⟨X⟩: cannot collide with parsed constants
	}
	for _, a := range q.Body {
		facts = append(facts, s.ApplyAtom(a))
	}
	return facts, s.ApplyAtom(q.Head)
}
