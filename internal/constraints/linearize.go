package constraints

import (
	"strings"

	"repro/internal/cq"
)

// Linearization is a total preorder over a set of terms, represented as
// blocks of equal terms listed in strictly increasing order. Linearizations
// are the "total orderings" quantified over by the complete containment test
// for conjunctive queries with comparisons.
type Linearization [][]cq.Term

// Comparisons returns the constraint rendering of the linearization:
// equalities within each block and a strict inequality between consecutive
// blocks (one representative per block suffices by transitivity).
func (l Linearization) Comparisons() []cq.Comparison {
	var out []cq.Comparison
	for _, block := range l {
		for i := 1; i < len(block); i++ {
			out = append(out, cq.Comparison{Left: block[0], Op: cq.Eq, Right: block[i]})
		}
	}
	for i := 1; i < len(l); i++ {
		out = append(out, cq.Comparison{Left: l[i-1][0], Op: cq.Lt, Right: l[i][0]})
	}
	return out
}

// MergeSubst returns the substitution that collapses each block onto a
// representative: the block's constant if it has one, otherwise its first
// term. Applying it to a query identifies the terms the linearization
// declares equal — required before searching containment mappings against
// a fixed linearization.
func (l Linearization) MergeSubst() cq.Subst {
	s := cq.NewSubst()
	for _, block := range l {
		rep := block[0]
		for _, t := range block {
			if t.IsConst() {
				rep = t
				break
			}
		}
		for _, t := range block {
			if t.IsVar() && t != rep {
				s[t.Lex] = rep
			}
		}
	}
	return s
}

// Set returns the linearization as a constraint set over its terms.
func (l Linearization) Set() *Set {
	var terms []cq.Term
	for _, b := range l {
		terms = append(terms, b...)
	}
	return NewSet(l.Comparisons(), terms...)
}

// String renders e.g. "a = X < Y < 5 = Z".
func (l Linearization) String() string {
	var parts []string
	for _, b := range l {
		var eq []string
		for _, t := range b {
			eq = append(eq, t.String())
		}
		parts = append(parts, strings.Join(eq, " = "))
	}
	return strings.Join(parts, " < ")
}

// EnumerateLinearizations calls yield for every total preorder of terms that
// is consistent with the base constraint set (nil base means no constraints).
// Enumeration stops early if yield returns false. The count of linearizations
// is the Fubini number of len(terms) before filtering — callers should keep
// the term set small (the complete containment test is exponential by the
// paper's lower bound; see DESIGN.md R5).
func EnumerateLinearizations(terms []cq.Term, base *Set, yield func(Linearization) bool) {
	terms = dedupeTerms(terms)
	var rec func(i int, blocks [][]cq.Term) bool
	rec = func(i int, blocks [][]cq.Term) bool {
		if i == len(terms) {
			lin := make(Linearization, len(blocks))
			for b, blk := range blocks {
				cp := make([]cq.Term, len(blk))
				copy(cp, blk)
				lin[b] = cp
			}
			if !consistent(lin, base) {
				return true
			}
			return yield(lin)
		}
		t := terms[i]
		// Join an existing block.
		for b := range blocks {
			blocks[b] = append(blocks[b], t)
			if !rec(i+1, blocks) {
				return false
			}
			blocks[b] = blocks[b][:len(blocks[b])-1]
		}
		// Open a new block at any gap.
		for gap := 0; gap <= len(blocks); gap++ {
			next := make([][]cq.Term, 0, len(blocks)+1)
			next = append(next, blocks[:gap]...)
			next = append(next, []cq.Term{t})
			next = append(next, blocks[gap:]...)
			if !rec(i+1, next) {
				return false
			}
		}
		return true
	}
	rec(0, nil)
}

func consistent(l Linearization, base *Set) bool {
	var s *Set
	if base == nil {
		s = NewSet(nil)
	} else {
		s = base.Clone()
	}
	for _, c := range l.Comparisons() {
		s.Add(c)
	}
	// Register all terms so constant ordering is enforced even for blocks
	// of size one.
	for _, b := range l {
		for _, t := range b {
			s.AddTerm(t)
		}
	}
	return s.Satisfiable()
}

func dedupeTerms(terms []cq.Term) []cq.Term {
	seen := make(map[cq.Term]bool, len(terms))
	out := terms[:0:0]
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}
