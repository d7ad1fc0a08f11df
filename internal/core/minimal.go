package core

import (
	"repro/internal/containment"
	"repro/internal/cq"
)

// This file implements the paper's R4 material on minimal rewritings: a
// rewriting is *locally minimal* if no proper subset of its subgoals is
// itself an equivalent rewriting, and *globally minimal* if no equivalent
// rewriting over the same views has fewer subgoals. Locally minimal
// rewritings are the useful ones in practice — dropping a redundant view
// subgoal only removes a join — while global minimality is the yardstick
// for how much a view set can shorten a query.

// LocallyMinimal reports whether rw cannot lose any subgoal and stay an
// equivalent rewriting of q.
func LocallyMinimal(q *cq.Query, rw *cq.Query, vs *ViewSet) bool {
	_, changed := shrinkOnce(q, rw, vs)
	return !changed
}

// MinimizeRewriting greedily removes redundant subgoals from a verified
// rewriting until it is locally minimal. The result is equivalent to the
// input rewriting (and therefore to q).
func MinimizeRewriting(q *cq.Query, rw *cq.Query, vs *ViewSet) *cq.Query {
	cur := rw.Clone()
	for {
		next, changed := shrinkOnce(q, cur, vs)
		if !changed {
			return cur
		}
		cur = next
	}
}

// shrinkOnce tries to drop one subgoal of rw while preserving equivalence
// with q; it reports whether it succeeded.
func shrinkOnce(q, rw *cq.Query, vs *ViewSet) (*cq.Query, bool) {
	if len(rw.Body) <= 1 {
		return rw, false
	}
	for i := range rw.Body {
		cand := rw.Clone()
		cand.Body = append(cand.Body[:i], cand.Body[i+1:]...)
		if cand.Validate() != nil {
			continue
		}
		ok, err := VerifyRewriting(q, cand, vs)
		if err == nil && ok {
			return cand, true
		}
	}
	return rw, false
}

// GloballyMinimal filters a result set down to the rewritings whose body
// length equals the minimum over the set. With an exhaustive result set
// (Options.MaxResults = AllRewritings) these are the globally minimal
// rewritings.
func GloballyMinimal(results []*Rewriting) []*Rewriting {
	if len(results) == 0 {
		return nil
	}
	best := len(results[0].Query.Body)
	for _, r := range results {
		if len(r.Query.Body) < best {
			best = len(r.Query.Body)
		}
	}
	var out []*Rewriting
	for _, r := range results {
		if len(r.Query.Body) == best {
			out = append(out, r)
		}
	}
	return out
}

// Shortening reports how much the best rewriting shortens the query: the
// subgoal counts of the minimised query and of the shortest equivalent
// rewriting (complete or partial), and whether views help at all. This is
// the paper's motivation for partial rewritings — replacing a group of
// subgoals by one view atom.
type Shortening struct {
	QuerySubgoals     int
	RewritingSubgoals int
	// Found reports whether any rewriting exists.
	Found bool
}

// BestShortening searches for the shortest rewriting (allowing partial
// rewritings) and reports the achieved reduction.
func BestShortening(q *cq.Query, vs *ViewSet) Shortening {
	qm := containment.Minimize(q)
	r := NewRewriter(vs)
	r.Opt.AllowPartial = true
	r.Opt.MaxResults = AllRewritings
	results, _ := r.Rewrite(q)
	s := Shortening{QuerySubgoals: len(qm.Body)}
	for _, rw := range results {
		min := MinimizeRewriting(q, rw.Query, vs)
		if !s.Found || len(min.Body) < s.RewritingSubgoals {
			s.Found = true
			s.RewritingSubgoals = len(min.Body)
		}
	}
	return s
}
