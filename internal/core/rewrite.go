package core

import (
	"slices"
	"sort"

	"repro/internal/containment"
	"repro/internal/cq"
)

// Rewriting is a verified equivalent rewriting of a query: Query is the
// rewriting itself (its body uses view predicates, plus base predicates for
// partial rewritings), Expansion is its unfolding, which is equivalent to
// the input query.
type Rewriting struct {
	Query     *cq.Query
	Expansion *cq.Query
	// Complete reports whether the body uses view predicates only.
	Complete bool
}

// Options configures the rewriting search.
type Options struct {
	// MaxResults bounds the number of rewritings returned; 0 means 1.
	// Use AllRewritings to enumerate exhaustively.
	MaxResults int
	// AllowPartial admits rewritings that keep some of the query's own
	// base subgoals (the paper's partial rewritings, R4). Candidates
	// consisting solely of base atoms are never returned.
	AllowPartial bool
	// SkipMinimize disables the initial query minimisation. The search is
	// then still sound but may miss rewritings (completeness of the cover
	// enumeration relies on the query being a core); intended for the F6
	// ablation experiment.
	SkipMinimize bool
	// KeepComparisons attaches the query's comparison predicates to each
	// candidate when all their terms are exposed by the candidate's
	// subgoals, letting rewritings re-assert filters the views do not
	// enforce.
	KeepComparisons bool
}

// AllRewritings can be used as Options.MaxResults to enumerate every
// rewriting the search space contains.
const AllRewritings = int(^uint(0) >> 1)

// Stats reports work performed by one rewriting search.
type Stats struct {
	Applications       int // total applications enumerated
	ValidApplications  int
	CandidatesTried    int // covers generated
	EquivalenceChecks  int
	RewritingsFound    int
	MinimizedBodyAtoms int // body size of the minimised query
}

// Rewriter searches for equivalent rewritings of conjunctive queries using
// a view set. A Rewriter is safe for sequential reuse across queries.
type Rewriter struct {
	Views *ViewSet
	Opt   Options
	// Memo, when non-nil, memoises the equivalence checks performed while
	// verifying candidates, keyed by canonical query fingerprints. Sharing
	// one memo across searches lets repeated or α-equivalent candidates
	// skip the exponential containment test. The memo is safe for
	// concurrent use, so rewriters running in parallel may share it.
	Memo *containment.Memo
}

// NewRewriter builds a Rewriter over the given views with default options
// (first rewriting only, complete rewritings, minimisation on).
func NewRewriter(vs *ViewSet) *Rewriter {
	return &Rewriter{Views: vs}
}

// Rewrite returns verified equivalent rewritings of q, best-first by body
// length, together with search statistics. An empty slice means no
// rewriting exists within the configured search space.
func (r *Rewriter) Rewrite(q *cq.Query) ([]*Rewriting, Stats) {
	var st Stats
	limit := r.Opt.MaxResults
	if limit <= 0 {
		limit = 1
	}

	// One search serves the minimisation, every view's applications and
	// every candidate's verification.
	s := &containment.Search{Memo: r.Memo}
	qm := q
	if !r.Opt.SkipMinimize {
		qm = s.Minimize(q)
	}
	st.MinimizedBodyAtoms = len(qm.Body)
	pqm := containment.Prepare(qm)

	apps := r.collectApplications(qm, s, &st)
	if len(apps) == 0 {
		return nil, st
	}

	// Index applications by lowest covered atom for the cover search.
	n := len(qm.Body)
	byAtom := make([][]*Application, n)
	for i := range apps {
		for _, c := range apps[i].Covers {
			byAtom[c] = append(byAtom[c], &apps[i])
		}
	}

	var results []*Rewriting
	var seen cq.QuerySet
	var selected []*Application

	var newlyCovered []int // a stack: each level of the search undoes what it covered
	var search func(nextUncovered int, covered []bool, coveredCount int) bool
	search = func(nextUncovered int, covered []bool, coveredCount int) bool {
		for nextUncovered < n && covered[nextUncovered] {
			nextUncovered++
		}
		if nextUncovered == n {
			cand := r.buildCandidate(qm, selected)
			if cand == nil {
				return true
			}
			if !seen.Add(cand) {
				return true
			}
			st.CandidatesTried++
			if rw := r.verify(pqm, cand, s, &st); rw != nil {
				results = append(results, rw)
				if len(results) >= limit {
					return false
				}
			}
			return true
		}
		if len(selected) >= n {
			return true // R2 bound: no rewriting needs more than n subgoals
		}
		for _, ap := range byAtom[nextUncovered] {
			mark := len(newlyCovered)
			for _, c := range ap.Covers {
				if !covered[c] {
					covered[c] = true
					newlyCovered = append(newlyCovered, c)
				}
			}
			selected = append(selected, ap)
			cont := search(nextUncovered+1, covered, coveredCount+len(newlyCovered)-mark)
			selected = selected[:len(selected)-1]
			for _, c := range newlyCovered[mark:] {
				covered[c] = false
			}
			newlyCovered = newlyCovered[:mark]
			if !cont {
				return false
			}
		}
		return true
	}
	search(0, make([]bool, n), 0)

	sort.SliceStable(results, func(i, j int) bool {
		return len(results[i].Query.Body) < len(results[j].Query.Body)
	})
	st.RewritingsFound = len(results)
	return results, st
}

// RewriteOne returns the first rewriting found, or nil.
func (r *Rewriter) RewriteOne(q *cq.Query) *Rewriting {
	saved := r.Opt.MaxResults
	r.Opt.MaxResults = 1
	defer func() { r.Opt.MaxResults = saved }()
	res, _ := r.Rewrite(q)
	if len(res) == 0 {
		return nil
	}
	return res[0]
}

// Exists reports whether an equivalent rewriting of q exists within the
// configured search space. For pure conjunctive queries with complete
// rewritings this decides the paper's NP-complete existence problem (R3).
func (r *Rewriter) Exists(q *cq.Query) bool {
	return r.RewriteOne(q) != nil
}

// collectApplications enumerates the valid applications of every view whose
// body predicates all occur in qm; a view with a predicate qm lacks has no
// homomorphism into it.
func (r *Rewriter) collectApplications(qm *cq.Query, s *containment.Search, st *Stats) []Application {
	occurs := func(pred string) bool {
		return slices.ContainsFunc(qm.Body, func(a cq.Atom) bool { return a.Pred == pred })
	}
	var apps []Application
	for i := 0; i < r.Views.Len(); i++ {
		v := r.Views.View(i)
		if slices.ContainsFunc(v.Preds, func(p string) bool { return !occurs(p) }) {
			continue
		}
		for _, ap := range applications(v, qm, s) {
			st.Applications++
			if ap.Valid {
				st.ValidApplications++
				apps = append(apps, ap)
			}
		}
	}
	if r.Opt.AllowPartial {
		// A "self application" keeps base atom i in the rewriting.
		for i, a := range qm.Body {
			apps = append(apps, Application{Atom: a, Covers: []int{i}, Valid: true})
		}
	}
	return apps
}

// buildCandidate assembles the rewriting query from selected applications.
// It returns nil when the candidate is structurally hopeless (unsafe head,
// or no view atom at all).
func (r *Rewriter) buildCandidate(qm *cq.Query, selected []*Application) *cq.Query {
	body := make([]cq.Atom, 0, len(selected))
	usesView := false
	for _, ap := range selected {
		if slices.ContainsFunc(body, ap.Atom.Equal) {
			continue
		}
		body = append(body, ap.Atom)
		if ap.View != nil {
			usesView = true
		}
	}
	if !usesView {
		return nil
	}
	cand := &cq.Query{Head: qm.Head, Body: body}
	if r.Opt.KeepComparisons {
		exposed := func(t cq.Term) bool { return t.IsConst() || cand.InBody(t) }
		for _, c := range qm.Comparisons {
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

// verify unfolds the candidate and checks equivalence with the query.
func (r *Rewriter) verify(qm *containment.Prepared, cand *cq.Query, s *containment.Search, st *Stats) *Rewriting {
	exp, err := Expand(cand, r.Views)
	if err != nil {
		return nil
	}
	st.EquivalenceChecks++
	if !s.Equivalent(containment.Prepare(exp), qm) {
		return nil
	}
	complete := true
	for _, a := range cand.Body {
		if r.Views.Lookup(a.Pred) == nil {
			complete = false
			break
		}
	}
	return &Rewriting{Query: cand, Expansion: exp, Complete: complete}
}

// VerifyRewriting checks, from scratch, that candidate is an equivalent
// rewriting of q over vs: it unfolds the candidate and tests equivalence.
// This is the paper's characterisation R1 and is exposed so that externally
// produced rewritings can be validated.
func VerifyRewriting(q, candidate *cq.Query, vs *ViewSet) (bool, error) {
	exp, err := Expand(candidate, vs)
	if err != nil {
		return false, err
	}
	return containment.Equivalent(exp, q), nil
}
