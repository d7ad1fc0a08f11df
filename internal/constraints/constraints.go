// Package constraints decides satisfiability and implication for
// conjunctions of arithmetic comparison predicates (<, <=, >, >=, =, !=)
// over a densely ordered domain, as needed for conjunctive queries with
// comparisons ("Answering Queries Using Views", PODS 1995, Section on
// queries with arithmetic comparisons).
//
// A Set holds a conjunction of comparisons over variables and constants.
// Satisfiability and implication are decided by computing the transitive
// closure of the induced <=/< graph (a Floyd–Warshall pass over the
// {<=, <} semiring), with the total order on constants added implicitly.
// Density of the domain guarantees that the closure test is complete: a
// conjunction is satisfiable iff no term is strictly below itself and no
// disequated pair is forced equal.
package constraints

import (
	"sort"
	"strings"

	"repro/internal/cq"
)

// Set is a conjunction of comparison constraints. The zero value is not
// usable; construct with NewSet.
type Set struct {
	comps []cq.Comparison
	terms []cq.Term
	index map[cq.Term]int

	dirty bool
	le    [][]bool // le[i][j]: terms[i] <= terms[j] derivable
	lt    [][]bool // lt[i][j]: terms[i] <  terms[j] derivable
	ne    [][]bool // ne[i][j]: terms[i] != terms[j] asserted (not closed)
}

// NewSet builds a constraint set from the given comparisons. Additional
// terms may be registered so that implication questions about them can be
// asked even if they do not appear in any comparison.
func NewSet(comps []cq.Comparison, extraTerms ...cq.Term) *Set {
	s := &Set{index: make(map[cq.Term]int), dirty: true}
	for _, t := range extraTerms {
		s.addTerm(t)
	}
	for _, c := range comps {
		s.Add(c)
	}
	return s
}

// Add appends one comparison to the conjunction.
func (s *Set) Add(c cq.Comparison) {
	s.addTerm(c.Left)
	s.addTerm(c.Right)
	s.comps = append(s.comps, c)
	s.dirty = true
}

// AddTerm registers a term without constraining it.
func (s *Set) AddTerm(t cq.Term) {
	s.addTerm(t)
}

// Terms returns all registered terms.
func (s *Set) Terms() []cq.Term {
	out := make([]cq.Term, len(s.terms))
	copy(out, s.terms)
	return out
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	return NewSet(s.comps, s.terms...)
}

func (s *Set) addTerm(t cq.Term) int {
	if i, ok := s.index[t]; ok {
		return i
	}
	i := len(s.terms)
	s.terms = append(s.terms, t)
	s.index[t] = i
	s.dirty = true
	return i
}

// close recomputes the transitive closure matrices.
func (s *Set) close() {
	if !s.dirty {
		return
	}
	n := len(s.terms)
	s.le = boolMatrix(n)
	s.lt = boolMatrix(n)
	s.ne = boolMatrix(n)
	for i := 0; i < n; i++ {
		s.le[i][i] = true
	}
	// Implicit total order on constants.
	for i := 0; i < n; i++ {
		if !s.terms[i].IsConst() {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || !s.terms[j].IsConst() {
				continue
			}
			switch cq.CompareConst(s.terms[i], s.terms[j]) {
			case -1:
				s.lt[i][j], s.le[i][j] = true, true
				s.ne[i][j], s.ne[j][i] = true, true
			case 0:
				s.le[i][j] = true
			case 1:
				// handled symmetrically when (j,i) is visited
			}
		}
	}
	// Asserted comparisons.
	for _, c := range s.comps {
		i, j := s.index[c.Left], s.index[c.Right]
		switch c.Op {
		case cq.Lt:
			s.lt[i][j], s.le[i][j] = true, true
		case cq.Le:
			s.le[i][j] = true
		case cq.Gt:
			s.lt[j][i], s.le[j][i] = true, true
		case cq.Ge:
			s.le[j][i] = true
		case cq.Eq:
			s.le[i][j], s.le[j][i] = true, true
		case cq.Ne:
			s.ne[i][j], s.ne[j][i] = true, true
		}
	}
	// Floyd–Warshall over the ordered semiring:
	//   le := le ∘ le,   lt := (le ∘ lt) ∪ (lt ∘ le).
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !s.le[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if !s.le[k][j] {
					continue
				}
				s.le[i][j] = true
				if s.lt[i][k] || s.lt[k][j] {
					s.lt[i][j] = true
				}
			}
		}
	}
	s.dirty = false
}

func boolMatrix(n int) [][]bool {
	m := make([][]bool, n)
	cells := make([]bool, n*n)
	for i := range m {
		m[i], cells = cells[:n], cells[n:]
	}
	return m
}

// Satisfiable reports whether the conjunction has a model over a dense
// linear order extending the order on constants.
func (s *Set) Satisfiable() bool {
	s.close()
	n := len(s.terms)
	for i := 0; i < n; i++ {
		if s.lt[i][i] {
			return false
		}
		for j := 0; j < n; j++ {
			if s.ne[i][j] && s.le[i][j] && s.le[j][i] {
				return false
			}
		}
	}
	return true
}

// Implies reports whether every model of the set satisfies c. It is decided
// as unsatisfiability of the set extended with the negation of c; the
// comparison language is closed under negation, so this is exact.
func (s *Set) Implies(c cq.Comparison) bool {
	if !s.Satisfiable() {
		return true
	}
	neg := cq.Comparison{Left: c.Left, Op: c.Op.Negate(), Right: c.Right}
	ext := s.Clone()
	ext.Add(neg)
	return !ext.Satisfiable()
}

// String renders the asserted comparisons deterministically.
func (s *Set) String() string {
	parts := make([]string, len(s.comps))
	for i, c := range s.comps {
		parts[i] = c.Normalize().String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
