// Package bucket implements the Bucket algorithm for rewriting conjunctive
// queries using views (Levy, Rajaraman, Ordille — the Information Manifold
// rewriting procedure), producing a maximally-contained rewriting as a
// union of conjunctive queries.
//
// For every query subgoal the algorithm collects a bucket of view atoms
// whose definitions can cover that subgoal; candidates are drawn from the
// cartesian product of the buckets and kept when their unfolding is
// contained in the query. The cartesian product is the algorithm's known
// weakness — buckets ignore how a view interacts with the rest of the query
// — and is exactly what the MiniCon comparison experiments (F1–F3) measure.
package bucket

import (
	"fmt"
	"slices"

	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/cq"
)

// Entry is one bucket element: a view atom that can cover the bucket's
// subgoal, together with provenance.
type Entry struct {
	// View is the original view definition.
	View *cq.Query
	// Atom is the rewriting subgoal: the view head under the unifier,
	// with unbound distinguished variables freshened.
	Atom cq.Atom
	// ViewAtomIndex is the index of the view body atom unified with the
	// query subgoal.
	ViewAtomIndex int
}

// Stats reports the work done by one run.
type Stats struct {
	BucketSizes      []int
	Combinations     int // candidates drawn from the cartesian product
	ContainmentTests int
	Kept             int
}

// Options configures the algorithm.
type Options struct {
	// MaxCombinations aborts the cartesian-product enumeration after this
	// many candidates (0 = unlimited). The F1–F3 experiments use it to
	// keep the known exponential blow-up bounded.
	MaxCombinations int
	// SkipMinimizeUnion returns the raw union without subsumption pruning.
	SkipMinimizeUnion bool
	// KeepComparisons attaches the query's comparisons to candidates when
	// all their terms are exposed.
	KeepComparisons bool
}

// Rewrite runs the Bucket algorithm and returns the maximally-contained
// rewriting of q using the views, as a union of conjunctive queries over
// view predicates, plus run statistics.
func Rewrite(q *cq.Query, vs *core.ViewSet, opt Options) (*cq.Union, Stats, error) {
	var st Stats
	if err := q.Validate(); err != nil {
		return nil, st, err
	}
	buckets := Buckets(q, vs)
	st.BucketSizes = make([]int, len(buckets))
	for i, b := range buckets {
		st.BucketSizes[i] = len(b)
		if len(b) == 0 {
			// A subgoal no view can cover: the MCR is empty.
			return &cq.Union{}, st, nil
		}
	}

	// One search serves every containment test of the run; q is the
	// containing query of all of them.
	var search containment.Search
	pq := containment.Prepare(q)

	result := &cq.Union{}
	tried := make(map[string]bool) // raw candidates already processed
	seen := make(map[string]bool)  // members already in the result
	choice := make([]int, len(buckets))
	for {
		st.Combinations++
		if opt.MaxCombinations > 0 && st.Combinations > opt.MaxCombinations {
			break
		}
		cand := buildCandidate(q, buckets, choice, opt)
		if cand != nil {
			key := cand.CanonicalString()
			if !tried[key] {
				tried[key] = true
				for _, kept := range tightenAndCheck(pq, cand, vs, &search, &st) {
					kkey := kept.CanonicalString()
					if !seen[kkey] {
						seen[kkey] = true
						result.Add(kept)
						st.Kept++
					}
				}
			}
		}
		// Advance the odometer.
		i := 0
		for ; i < len(choice); i++ {
			choice[i]++
			if choice[i] < len(buckets[i]) {
				break
			}
			choice[i] = 0
		}
		if i == len(choice) {
			break
		}
	}
	if !opt.SkipMinimizeUnion {
		result = search.MinimizeUnion(result)
	}
	return result, st, nil
}

// tightenMappingCap bounds how many unification guides are tried per
// candidate.
const tightenMappingCap = 4

// tightenAndCheck implements the Bucket algorithm's containment step: a raw
// cartesian-product candidate is usually not contained as-is because
// entries from multi-atom views carry fresh variables that should be
// equated with query variables. Following the original algorithm, the
// candidate "can be made contained by equating variables": homomorphisms
// from the candidate's unfolding onto the query (head fixed) propose the
// equations; each tightened candidate is verified exactly.
func tightenAndCheck(pq *containment.Prepared, cand *cq.Query, vs *core.ViewSet, search *containment.Search, st *Stats) []*cq.Query {
	q := pq.Query()
	exp, err := core.Expand(cand, vs)
	if err != nil {
		return nil
	}
	// Fast path: the raw candidate is already contained.
	st.ContainmentTests++
	if search.Contained(containment.Prepare(exp), pq) {
		return []*cq.Query{cand}
	}
	candVars := make(map[string]bool)
	for _, v := range cand.Vars() {
		candVars[v.Lex] = true
	}
	var kept []*cq.Query
	tried := 0
	// The enumeration runs on a search of its own: the callback tests
	// containment, and a Search must not be re-entered from its yield.
	containment.FindAllMappings(exp, q, func(h containment.Mapping) bool {
		tried++
		sigma := cq.NewSubst()
		for name, img := range h {
			if candVars[name] {
				sigma[name] = img
			}
		}
		tight := sigma.ApplyQuery(cand)
		if tight.Valid() {
			texp, err := core.Expand(tight, vs)
			if err == nil {
				st.ContainmentTests++
				if search.Contained(containment.Prepare(texp), pq) {
					kept = append(kept, tight)
				}
			}
		}
		return tried < tightenMappingCap
	})
	return kept
}

// Buckets builds, for every subgoal of q, the bucket of view atoms that can
// cover it.
func Buckets(q *cq.Query, vs *core.ViewSet) [][]Entry {
	headVars := make(map[string]bool)
	for _, t := range q.Head.Args {
		if t.IsVar() {
			headVars[t.Lex] = true
		}
	}
	buckets := make([][]Entry, len(q.Body))
	for gi, g := range q.Body {
		var bucket []Entry
		dedup := make(map[string]bool)
		for _, occ := range vs.Occurrences(g.Pred, len(g.Args)) {
			v := vs.View(occ.View)
			atom, ok := tryCover(q, g, v, occ.Atom, headVars, gi)
			if !ok {
				continue
			}
			key := atom.String()
			if dedup[key] {
				continue
			}
			dedup[key] = true
			bucket = append(bucket, Entry{View: v.Query, Atom: atom, ViewAtomIndex: occ.Atom})
		}
		buckets[gi] = bucket
	}
	return buckets
}

// tryCover attempts to unify query subgoal g with the ai-th body atom of
// view v, which has g's predicate and arity, and, if the bucket conditions
// hold, returns the rewriting subgoal.
//
// Bucket conditions: a query head variable in g must land on a distinguished
// variable of the view (otherwise the rewriting could not output it), and a
// constant in g must land on a distinguished variable or the same constant
// (an existential would lose the filter).
func tryCover(q *cq.Query, g cq.Atom, v *core.View, ai int, headVars map[string]bool, gi int) (cq.Atom, bool) {
	// The view's variables take the names renaming it apart from q would
	// give them, by id; a distinguished variable the unifier leaves free
	// shows up in the candidate under that name.
	fresh := cq.NewFreshener(fmt.Sprintf("B%d_", gi))
	fresh.Reserve(q)
	names := make([]cq.Term, v.NumVars())
	for id := range names {
		names[id] = fresh.Fresh()
	}
	renamed := func(id int32, t cq.Term) cq.Term {
		if id == cq.ConstArg {
			return t
		}
		return names[id]
	}
	a, ids := v.Query.Body[ai], v.Atom(ai)

	// Unification binds the most replaceable variable: view variables
	// first (the subgoal is rendered over query terms), then query
	// existentials; query head variables are kept free whenever possible
	// so the candidate stays safe.
	theta := cq.NewSubst()
	rank := func(t cq.Term) int {
		switch {
		case t.IsConst():
			return 3
		case slices.Contains(names, t):
			return 0
		case headVars[t.Lex]:
			return 2
		default:
			return 1
		}
	}
	unify := func(u, w cq.Term) bool {
		u, w = theta.Walk(u), theta.Walk(w)
		if u == w {
			return true
		}
		if rank(u) > rank(w) {
			u, w = w, u
		}
		if u.IsConst() {
			return false // two distinct constants
		}
		theta[u.Lex] = w
		return true
	}
	for i := range g.Args {
		if !unify(renamed(ids[i], a.Args[i]), g.Args[i]) {
			return cq.Atom{}, false
		}
	}
	resolved := theta.Resolved()

	// Bucket conditions are checked position-wise against the view's
	// original terms: an existential view variable enforces nothing in the
	// rewriting, so it may cover neither a query constant nor a query head
	// variable; a view constant cannot produce a query head variable.
	for i, qt := range g.Args {
		vtConst := ids[i] == cq.ConstArg
		vtExistential := !vtConst && v.Existential(ids[i])
		switch {
		case qt.IsConst() && vtExistential:
			return cq.Atom{}, false
		case qt.IsVar() && headVars[qt.Lex] && (vtConst || vtExistential):
			return cq.Atom{}, false
		}
	}

	// Build the rewriting subgoal: the view head under the unifier. View
	// variables that stayed unbound keep their fresh names (they act as
	// fresh variables of the candidate).
	head := v.Query.Head
	atom := cq.Atom{Pred: head.Pred, Args: make([]cq.Term, len(head.Args))}
	for pos, id := range v.Head() {
		atom.Args[pos] = resolved.ApplyTerm(renamed(id, head.Args[pos]))
	}
	return atom, true
}

func buildCandidate(q *cq.Query, buckets [][]Entry, choice []int, opt Options) *cq.Query {
	body := make([]cq.Atom, 0, len(choice))
	seen := make(map[string]bool)
	for i, c := range choice {
		a := buckets[i][c].Atom
		k := a.Key()
		if !seen[k] {
			seen[k] = true
			body = append(body, a)
		}
	}
	cand := &cq.Query{Head: q.Head, Body: body}
	if opt.KeepComparisons {
		exposed := func(t cq.Term) bool { return t.IsConst() || cand.InBody(t) }
		for _, c := range q.Comparisons {
			if exposed(c.Left) && exposed(c.Right) {
				cand.Comparisons = append(cand.Comparisons, c)
			}
		}
	}
	if !cand.Valid() {
		return nil
	}
	return cand
}
