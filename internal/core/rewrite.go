package core

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/constraints"
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
	// base subgoals (the paper's partial rewritings, R4). Rewritings
	// consisting solely of base atoms are never returned.
	AllowPartial bool
	// SkipMinimize disables the initial query minimisation. The
	// construction needs no minimised query, so no rewriting is lost; the
	// redundant atoms only enlarge what it enumerates, which the F6
	// ablation experiment measures.
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
	Applications       int // view atoms of the canonical rewriting
	CandidatesTried    int // sets of its atoms shrunk
	EquivalenceChecks  int // tests made while shrinking them
	RewritingsFound    int
	MinimizedBodyAtoms int // body size of the minimised query
	Steps              int // nodes the mapping search visited (containment.Search.Steps)
}

// Rewriter searches for equivalent rewritings of conjunctive queries using
// a view set. A Rewriter is safe for sequential reuse across queries.
type Rewriter struct {
	Views *ViewSet
	Opt   Options
	// Memo, when non-nil, memoises the equivalence checks performed on
	// queries with comparisons, keyed by canonical query fingerprints.
	// Sharing one memo across searches lets repeated or α-equivalent
	// candidates skip the exponential containment test. The memo is safe
	// for concurrent use, so rewriters running in parallel may share it.
	Memo *containment.Memo
}

// NewRewriter builds a Rewriter over the given views with default options
// (first rewriting only, complete rewritings, minimisation on).
func NewRewriter(vs *ViewSet) *Rewriter {
	return &Rewriter{Views: vs}
}

// Rewrite returns verified equivalent rewritings of q, best-first by body
// length, together with search statistics. An empty slice means no
// rewriting exists. It follows the proof of R2 (see canonical): the
// rewritings are sets of atoms of the canonical rewriting of the minimised
// query, each shrunk within R2's bound of as many subgoals as that query
// has. Without comparisons, under AllRewritings, they include every
// globally minimal rewriting.
func (r *Rewriter) Rewrite(q *cq.Query) ([]*Rewriting, Stats) {
	var st Stats
	if !r.Opt.AllowPartial && !r.coverable(q) {
		return nil, st
	}
	// One search serves the minimisation, every view's homomorphisms and
	// every test of the construction; it comes from the pool with the
	// arrays earlier searches grew.
	s := containment.AcquireSearch(r.Memo)
	defer s.Release()
	qm := q
	if !r.Opt.SkipMinimize {
		qm = s.Minimize(q)
	}
	var results []*Rewriting
	if c := r.canonical(qm, s); c != nil {
		results = c.rewritings(max(r.Opt.MaxResults, 1))
		st = c.st
	}
	st.MinimizedBodyAtoms, st.Steps = len(qm.Body), s.Steps()
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

// coverable reports whether every body atom of q has the predicate and
// arity of an atom of a view whose body predicates all occur in q. A view
// with a predicate q lacks has no homomorphism into it, and minimisation
// keeps every predicate, so otherwise no complete rewriting of q exists.
func (r *Rewriter) coverable(q *cq.Query) bool {
	occurs := func(p string) bool { return slices.ContainsFunc(q.Body, func(a cq.Atom) bool { return a.Pred == p }) }
	for _, a := range q.Body {
		if !slices.ContainsFunc(r.Views.Occurrences(a.Pred, len(a.Args)), func(o Occurrence) bool {
			return !slices.ContainsFunc(r.Views.View(o.View).Preds, func(p string) bool { return !occurs(p) })
		}) {
			return false
		}
	}
	return true
}

// canonical is the canonical rewriting of a query qm, unfolded once: qm's
// head over every view atom that a homomorphism of a view body into qm
// yields, and under AllowPartial qm's own atoms too. A rewriting exists iff
// qm maps into the unfolding, and the atoms such a mapping touches form
// one. With comparisons, a view atom is kept only when qm's comparisons
// imply the view's under the homomorphism, and the whole canonical
// rewriting, with the comparisons of qm it exposes under KeepComparisons,
// is the one candidate.
type canonical struct {
	s  *containment.Search
	st Stats // the counts of the shrinking
	qm *containment.Prepared
	// body holds the view atoms, body[:views], then under AllowPartial
	// qm's own atoms, the identity views of a partial rewriting. A set of
	// them is a string with one byte per atom of body, 1 for a member.
	body  []cq.Atom
	views int
	// exp unfolds qm's head over body: exp.Body[end[i]:end[i+1]] and
	// exp.Comparisons[cend[i]:cend[i+1]] unfold body[i].
	exp       *cq.Query
	end, cend []int
	// h[b] is the atom of qm that the unfolded atom exp.Body[b] maps back
	// onto: where the homomorphism that yielded its view atom sent the view
	// atom it unfolds, and under AllowPartial qm's own atom itself. When qm
	// is minimised, the mappings of qm into exp are searched only among
	// those that send each atom i of qm onto atoms b with h[b] == i (see
	// rewritings); nil turns that filter off.
	h     []int32
	comps []cq.Comparison // qm's, under KeepComparisons
	pure  bool            // no comparisons in qm or in exp
	cut   cq.Query        // scratch of restrict
	// first[i] is the first atom of qm that body[i] stands for; a
	// rewriting lists its atoms in that order. v is the view add is given
	// the homomorphisms of; args and implied (qm's comparisons, built on
	// first need) are add's scratch, and add appends the homomorphism of
	// each view atom it keeps to h.
	v       *View
	first   []int
	args    []cq.Term
	implied *constraints.Set
}

// canonical builds the canonical rewriting of qm, or returns nil when it
// has no view atom.
func (r *Rewriter) canonical(qm *cq.Query, s *containment.Search) *canonical {
	c := &canonical{s: s, qm: containment.Prepare(qm)}
	add := c.add // one closure serves every view
	for i := range r.Views.Len() {
		c.v = r.Views.View(i)
		s.BodyMappings(&c.v.Numbered, qm, add)
	}
	if c.st.Applications, c.views = len(c.body), len(c.body); c.views == 0 {
		return nil
	}
	if r.Opt.AllowPartial {
		c.body, c.first = append(c.body, qm.Body...), append(c.first, all(len(qm.Body))...)
		for i := range qm.Body {
			c.h = append(c.h, int32(i))
		}
	}
	if r.Opt.SkipMinimize {
		c.h = nil // qm need not be minimal, so the filter could lose a mapping
	}
	if r.Opt.KeepComparisons {
		c.comps = qm.Comparisons
	}
	var err error
	if c.exp, err = Expand(&cq.Query{Head: qm.Head, Body: c.body}, r.Views); err != nil {
		return nil // unreachable: each view atom is an image of its view's head
	}
	c.pure = len(qm.Comparisons) == 0 && len(c.exp.Comparisons) == 0
	ends := make([]int, 2*len(c.body)+2)
	c.end, c.cend = ends[:len(c.body)+1], ends[len(c.body)+1:]
	for i, a := range c.body {
		c.end[i+1], c.cend[i+1] = c.end[i]+1, c.cend[i]
		if v := r.Views.view(a.Pred); v != nil {
			c.end[i+1], c.cend[i+1] = c.end[i]+len(v.Query.Body), c.cend[i]+len(v.Query.Comparisons)
		}
	}
	return c
}

// add appends the image of v's head under the mapping s is yielding to
// body, unless it is there already or qm's comparisons do not imply v's
// under the mapping.
func (c *canonical) add(at []int32) bool {
	v, s := c.v, c.s
	c.args = c.args[:0]
	for pos, id := range v.Head() {
		c.args = append(c.args, image(s, id, v.Query.Head.Args[pos]))
	}
	atom := cq.Atom{Pred: v.Query.Head.Pred, Args: c.args}
	if slices.ContainsFunc(c.body, atom.Equal) {
		return true
	}
	for j, cmp := range v.Query.Comparisons {
		if c.implied == nil {
			c.implied = constraints.NewSet(c.qm.Query().Comparisons)
		}
		left, right := v.Comparison(j)
		if !c.implied.Implies(cq.Comparison{Left: image(s, left, cmp.Left), Op: cmp.Op, Right: image(s, right, cmp.Right)}) {
			return true
		}
	}
	atom.Args = slices.Clone(c.args)
	c.body, c.first, c.h = append(c.body, atom), append(c.first, int(slices.Min(at))), append(c.h, at...)
	return true
}

// image is the term the mapping s is yielding gives to an argument t of a
// view, numbered id.
func image(s *containment.Search, id int32, t cq.Term) cq.Term {
	if id == cq.ConstArg {
		return t
	}
	return s.Image(id)
}

// rewritings returns up to limit rewritings, each a shrunk candidate set:
// without comparisons the distinct sets of atoms that mappings of qm into
// the unfolding touch, with comparisons the whole canonical rewriting if it
// is equivalent. A set that holds a rewriting already found is passed over;
// no globally minimal rewriting is lost that way, since each is a touched
// set that holds no other rewriting.
//
// A minimised qm is mapped only onto atoms that map back onto the atom they
// receive (h), which loses nothing: h is a homomorphism of the unfolding
// into qm that fixes the head, so for a mapping g of qm into the unfolding
// σ = h∘g maps qm into itself, and is an automorphism since qm is minimal.
// g∘σ⁻¹ is then a mapping that h sends back to the identity, and it touches
// a subset of the atoms g touches. So a rewriting is found whenever one
// exists, and every globally minimal one still is.
func (c *canonical) rewritings(limit int) []*Rewriting {
	var candidates []string
	if !c.pure {
		if c.equivalent(all(len(c.body))) {
			candidates = append(candidates, strings.Repeat("\x01", len(c.body)))
		}
	} else {
		key, seen := make([]byte, len(c.body)), make(map[string]bool)
		c.s.AtomMappings(c.qm, c.exp, c.h, func(at []int32) bool {
			clear(key)
			for _, j := range at {
				key[sort.SearchInts(c.end, int(j)+1)-1] = 1
			}
			if !seen[string(key)] {
				k := string(key)
				seen[k] = true
				if slices.Contains(key[:c.views], 1) {
					candidates = append(candidates, k)
				}
			}
			return len(candidates) < limit
		})
	}
	var results []*Rewriting
	var found [][]int // the atoms of each rewriting
	for _, k := range candidates {
		if slices.ContainsFunc(found, func(f []int) bool { return holds(k, f) }) {
			continue
		}
		c.st.CandidatesTried++
		kept, _ := shrinkOnce(members(k), c.equivalent)
		found = append(found, kept)
		slices.SortStableFunc(kept, func(a, b int) int { return c.first[a] - c.first[b] })
		exp := c.restrict(kept)
		results = append(results, &Rewriting{
			Query:     subset(exp.Head, c.body, c.comps, kept),
			Expansion: &cq.Query{Head: exp.Head, Body: slices.Clone(exp.Body), Comparisons: slices.Clone(exp.Comparisons)},
			Complete:  slices.Max(kept) < c.views,
		})
	}
	return results
}

// equivalent reports whether the atoms kept, in increasing order, form a
// rewriting of qm: one of them is a view atom and, with the comparisons of
// qm they expose, their unfolding is equivalent to qm, which without
// comparisons means that qm maps into it.
func (c *canonical) equivalent(kept []int) bool {
	if kept[0] >= c.views {
		return false
	}
	exp := c.restrict(kept)
	c.st.EquivalenceChecks++
	if c.pure {
		return c.s.Maps(c.qm, exp)
	}
	return exp.Valid() && c.s.Equivalent(c.s.Prepare(exp), c.qm)
}

// restrict returns, in c's scratch, the unfolding of the atoms kept with
// the comparisons of qm they expose.
func (c *canonical) restrict(kept []int) *cq.Query {
	cut := &c.cut
	cut.Head, cut.Body, cut.Comparisons = c.exp.Head, cut.Body[:0], cut.Comparisons[:0]
	for _, i := range kept {
		cut.Body = append(cut.Body, c.exp.Body[c.end[i]:c.end[i+1]]...)
		cut.Comparisons = append(cut.Comparisons, c.exp.Comparisons[c.cend[i]:c.cend[i+1]]...)
	}
	for _, cmp := range c.comps {
		if exposes(cut, cmp) {
			cut.Comparisons = append(cut.Comparisons, cmp)
		}
	}
	return cut
}

// subset is the query head :- body[kept], with the comparisons of comps
// whose terms the kept atoms expose.
func subset(head cq.Atom, body []cq.Atom, comps []cq.Comparison, kept []int) *cq.Query {
	q := &cq.Query{Head: head, Body: make([]cq.Atom, len(kept))}
	for k, i := range kept {
		q.Body[k] = body[i]
	}
	for _, cmp := range comps {
		if exposes(q, cmp) {
			q.Comparisons = append(q.Comparisons, cmp)
		}
	}
	return q
}

// exposes reports whether every variable of cmp occurs in q's body.
func exposes(q *cq.Query, cmp cq.Comparison) bool {
	return (cmp.Left.IsConst() || q.InBody(cmp.Left)) && (cmp.Right.IsConst() || q.InBody(cmp.Right))
}

// all returns 0, …, n-1.
func all(n int) []int { return members(strings.Repeat("\x01", n)) }

// members lists the atoms a set holds, in increasing order.
func members(set string) []int {
	var out []int
	for i := range len(set) {
		if set[i] == 1 {
			out = append(out, i)
		}
	}
	return out
}

// holds reports whether set holds every atom of kept.
func holds(set string, kept []int) bool {
	for _, i := range kept {
		if set[i] == 0 {
			return false
		}
	}
	return true
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
