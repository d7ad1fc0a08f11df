package core

import (
	"slices"

	"repro/internal/containment"
	"repro/internal/cq"
)

// checkApplication reports whether the homomorphism of v's body into q that
// s is yielding, at[i] being the atom of q that v's atom i lands on, is a
// valid application of v, and if not, why. It is valid when it could
// expose, on its own, every term of the atoms it covers that the rest of a
// minimised q needs: every view variable mapped to a "needed" query term (a
// head term or a term of an uncovered atom) must be distinguished in the
// view, no view existential may land on a constant, and distinct
// existentials may not be collapsed onto the same term. Validity is the
// usability test of R3 (Usable); the rewriter does not use it, since
// another atom of a rewriting may expose what one application hides.
func checkApplication(v *View, q *cq.Query, s *containment.Search, at []int32) (bool, string) {
	// Needed terms of q: head terms and terms of uncovered atoms. Terms
	// appearing only in comparisons are deliberately not "needed" here: a
	// view may enforce a comparison itself without exposing the column.
	needed := func(t cq.Term) bool {
		if slices.Contains(q.Head.Args, t) {
			return true
		}
		for i, a := range q.Body {
			if !slices.Contains(at, int32(i)) && slices.Contains(a.Args, t) {
				return true
			}
		}
		return false
	}
	for x := int32(0); x < int32(v.NumVars()); x++ {
		if !v.Existential(x) {
			continue
		}
		img, name := s.Image(x), v.Names[x]
		if img.IsConst() {
			return false, "existential " + name + " lands on constant " + img.String()
		}
		if needed(img) {
			return false, "existential " + name + " lands on needed term " + img.String()
		}
		for y := int32(0); y < x; y++ {
			if v.Existential(y) && s.Image(y) == img {
				return false, "existentials " + v.Names[y] + " and " + name + " collapse onto " + img.String()
			}
		}
	}
	// Distinct distinguished variables may collapse: the view atom then
	// repeats an argument.
	return true, ""
}

// Usable reports whether view v has at least one valid application to
// (minimised) q: one that hides no term the rest of q needs. That is not
// necessary for v to occur in an equivalent rewriting: a view with no valid
// application still can, when each head term its existentials hide is
// exposed by another view of the rewriting, and the rewriter, which does
// not test validity, finds such rewritings
// (TestUsableMissesEquivalentRewriting). Deciding usability is NP-complete
// in the size of the view (R3); this implementation backtracks over body
// mappings and stops at the first valid application.
func Usable(v, q *cq.Query) bool {
	var s containment.Search
	iv, qm := newView(v), s.Minimize(q)
	found := false
	s.BodyMappings(&iv.Numbered, qm, func(at []int32) bool {
		found, _ = checkApplication(iv, qm, &s, at)
		return !found
	})
	return found
}
