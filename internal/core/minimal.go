package core

import "repro/internal/cq"

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
	_, changed := shrinkOnce(all(len(rw.Body)), nil, verifies(q, rw, vs))
	return !changed
}

// MinimizeRewriting removes redundant subgoals from a verified rewriting,
// together with any comparison the remaining subgoals no longer expose,
// until it is locally minimal. The result is equivalent to the input
// rewriting (and therefore to q).
func MinimizeRewriting(q *cq.Query, rw *cq.Query, vs *ViewSet) *cq.Query {
	kept, _ := shrinkOnce(all(len(rw.Body)), nil, verifies(q, rw, vs))
	return subset(rw.Head, rw.Body, rw.Comparisons, kept).Clone()
}

// verifies returns the test that the subgoals kept of rw, with the
// comparisons of rw they expose, still form an equivalent rewriting of q.
func verifies(q, rw *cq.Query, vs *ViewSet) func(kept []int) bool {
	return func(kept []int) bool {
		cand := subset(rw.Head, rw.Body, rw.Comparisons, kept)
		if !cand.Valid() {
			return false
		}
		ok, err := VerifyRewriting(q, cand, vs)
		return err == nil && ok
	}
}

// shrinkOnce is the package's one drop-while-equivalent step: it makes one
// pass over kept, an equivalent set, dropping each member, last to first,
// whose removal leaves ok true, and reports whether it dropped any. The
// sets it tries are built in trial's array. It
// never drops the last member. One pass leaves no member that could go,
// because ok is monotone: q is contained in the unfolding of every subset
// of an equivalent rewriting, so a subset stays equivalent iff its
// unfolding is contained in q, and dropping more can only break that.
func shrinkOnce(kept, trial []int, ok func(kept []int) bool) ([]int, bool) {
	changed := false
	for i := len(kept) - 1; i >= 0 && len(kept) > 1; i-- {
		trial = append(append(trial[:0], kept[:i]...), kept[i+1:]...)
		if ok(trial) {
			kept = append(kept[:i], kept[i+1:]...)
			changed = true
		}
	}
	return kept, changed
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
// rewritings) and reports the achieved reduction. Every rewriting Rewrite
// returns is already locally minimal, and for a query without comparisons
// a globally minimal one is among them: its atoms are exactly the ones
// some mapping touches.
func BestShortening(q *cq.Query, vs *ViewSet) Shortening {
	r := NewRewriter(vs)
	r.Opt.AllowPartial = true
	r.Opt.MaxResults = AllRewritings
	results, st := r.Rewrite(q)
	s := Shortening{QuerySubgoals: st.MinimizedBodyAtoms}
	if len(results) > 0 {
		s.Found, s.RewritingSubgoals = true, len(results[0].Query.Body)
	}
	return s
}
