package core

import (
	"slices"

	"repro/internal/containment"
	"repro/internal/cq"
)

// Application is one way of using a view in a rewriting of a query: a full
// homomorphism Phi from the view's body into the query's body. The induced
// rewriting subgoal is Atom = v(Phi(head args)); Covers lists the indices of
// the query body atoms that the view's body lands on.
//
// An application is Valid when it can participate in an equivalent
// rewriting of a minimised query: every view variable mapped to a "needed"
// query term (a head term, a term of an uncovered atom, or a comparison
// term) must be distinguished in the view, no view existential may land on
// a constant, and distinct existentials may not be collapsed onto the same
// term — otherwise the unfolding loses joins or constants that the query
// requires. Invalid applications are still recorded (the usability analysis
// reports why a view cannot help).
type Application struct {
	View   *cq.Query
	Phi    cq.Subst
	Atom   cq.Atom
	Covers []int
	Valid  bool
	// Reason explains Valid=false; empty when valid.
	Reason string
}

// same reports whether two applications of one view agree on the parts that
// matter for candidate generation: the rewriting atom and the covered set.
func (ap Application) same(other Application) bool {
	return ap.Atom.Equal(other.Atom) && slices.Equal(ap.Covers, other.Covers)
}

// Applications enumerates the applications of view v to query q. The query
// should normally be minimised first (see Rewriter); the enumeration is
// deterministic.
func Applications(v, q *cq.Query) []Application {
	var s containment.Search
	return applications(newView(v), q, &s)
}

// applications enumerates the applications of v to q on the caller's search,
// one per distinct rewriting atom and covered set.
func applications(v *View, q *cq.Query, s *containment.Search) []Application {
	var out []Application
	s.BodyMappings(&v.Numbered, q, nil, func() bool {
		ap := buildApplication(v, q, s)
		if !slices.ContainsFunc(out, ap.same) {
			ap.Phi = s.Mapping()
			out = append(out, ap)
		}
		return true
	})
	return out
}

// buildApplication describes the mapping s is currently yielding as an
// application of v to q. Phi is left for the caller to fill in.
func buildApplication(v *View, q *cq.Query, s *containment.Search) Application {
	image := func(id int32, t cq.Term) cq.Term {
		if id == cq.ConstArg {
			return t
		}
		img, _ := s.Image(id)
		return img
	}
	// Covered atoms: indices of q body atoms equal to the image of some
	// view body atom.
	var covers []int
	for i, qa := range q.Body {
		for j, va := range v.Query.Body {
			if va.Pred != qa.Pred || len(va.Args) != len(qa.Args) {
				continue
			}
			equal := true
			for k, id := range v.Atom(j) {
				if image(id, va.Args[k]) != qa.Args[k] {
					equal = false
					break
				}
			}
			if equal {
				covers = append(covers, i)
				break
			}
		}
	}
	head := v.Query.Head
	atom := cq.Atom{Pred: head.Pred, Args: make([]cq.Term, len(head.Args))}
	for pos, id := range v.Head() {
		atom.Args[pos] = image(id, head.Args[pos])
	}
	ap := Application{View: v.Query, Atom: atom, Covers: covers}
	ap.Valid, ap.Reason = checkApplication(v, q, s, covers)
	return ap
}

// checkApplication enforces the distinguished-variable conditions described
// on Application.
func checkApplication(v *View, q *cq.Query, s *containment.Search, covers []int) (bool, string) {
	// Needed terms of q: head terms and terms of uncovered atoms. Terms
	// appearing only in comparisons are deliberately not "needed" here —
	// a view may satisfy a comparison internally without exposing the
	// compared column; the final equivalence verification decides.
	needed := func(t cq.Term) bool {
		if slices.Contains(q.Head.Args, t) {
			return true
		}
		for i, a := range q.Body {
			if !slices.Contains(covers, i) && slices.Contains(a.Args, t) {
				return true
			}
		}
		return false
	}
	for x := int32(0); x < int32(v.NumVars()); x++ {
		if !v.Existential(x) {
			continue
		}
		img, bound := s.Image(x)
		if !bound {
			continue // view variable only in comparisons with no body occurrence cannot happen for safe views
		}
		name := v.Names[x]
		if img.IsConst() {
			return false, "existential " + name + " lands on constant " + img.String()
		}
		if needed(img) {
			return false, "existential " + name + " lands on needed term " + img.String()
		}
		for y := int32(0); y < x; y++ {
			if other, ok := s.Image(y); ok && v.Existential(y) && other == img {
				return false, "existentials " + v.Names[y] + " and " + name + " collapse onto " + img.String()
			}
		}
	}
	// Distinct distinguished variables may collapse (the view atom then has
	// a repeated argument) — allowed; the equivalence test decides.
	return true, ""
}

// Usable reports whether view v has at least one valid application to
// (minimised) q — the test the rewriter's cover search applies, which
// builds candidates from valid applications alone, so every view of a
// rewriting it returns is usable. The converse does not hold: a view with
// no valid application can still occur in an equivalent complete
// rewriting, when each head term its existentials hide is exposed by
// another view of the rewriting (TestUsableMissesEquivalentRewriting).
// Validity judges one application as if it alone had to expose every
// needed term of the atoms it covers. Deciding usability is NP-complete in
// the size of the view (R3); this implementation backtracks over body
// mappings and stops at the first valid application.
func Usable(v, q *cq.Query) bool {
	var s containment.Search
	iv, qm := newView(v), s.Minimize(q)
	found := false
	s.BodyMappings(&iv.Numbered, qm, nil, func() bool {
		found = buildApplication(iv, qm, &s).Valid
		return !found
	})
	return found
}
