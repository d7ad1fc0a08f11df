package core

import (
	"bytes"
	"hash/maphash"
	"slices"
	"sort"
	"sync"

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
	// arrays earlier searches grew, and the canonical rewriting is built in
	// pooled scratch the same way.
	s := containment.AcquireSearch(r.Memo)
	defer s.Release()
	qm := q
	if !r.Opt.SkipMinimize {
		qm = s.Minimize(q)
	}
	c := acquireCanonical(s)
	defer c.release()
	var results []*Rewriting
	if r.canonical(c, qm) {
		results = c.rewritings(max(r.Opt.MaxResults, 1))
		st = c.st
	}
	st.MinimizedBodyAtoms, st.Steps = len(qm.Body), s.Steps()
	slices.SortStableFunc(results, func(a, b *Rewriting) int { return len(a.Query.Body) - len(b.Query.Body) })
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
//
// A canonical is per-build scratch: it comes from a pool with the arrays
// earlier searches grew (acquireCanonical), everything in it is valid until
// release, and rewritings copies out each rewriting it returns (keep), so
// nothing a caller keeps shares an array with it.
type canonical struct {
	s     *containment.Search
	st    Stats // the counts of the shrinking
	query *cq.Query
	qm    *containment.Prepared // query, prepared
	// body holds the view atoms, body[:views], then under AllowPartial
	// qm's own atoms, the identity views of a partial rewriting. A set of
	// them is a string of bytes, one per atom of body, 1 for a member. The
	// view atoms' arguments are windows onto terms.
	body  []cq.Atom
	views int
	terms []cq.Term
	// exp unfolds qm's head over body: exp.Body[end[i]:end[i+1]] and
	// exp.Comparisons[cend[i]:cend[i+1]] unfold body[i]. x holds its
	// arrays, ends those of end and cend.
	exp       cq.Query
	x         expander
	end, cend []int
	ends      []int
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
	// The sets of atoms rewritings meets: sets holds them one after
	// another, len(body) bytes each; seen maps a set's hash to the newest
	// set with it, prev each set to the previous one with the same hash;
	// cands lists the sets with a view atom, limit bounds them, and key is
	// the set being built. found holds the atoms of each rewriting,
	// found[foundEnd[i-1]:foundEnd[i]], and kept and trial the set being
	// shrunk.
	sets     []byte
	seen     map[uint64]int32
	prev     []int32
	cands    []int32
	limit    int
	key      []byte
	found    []int
	foundEnd []int
	kept     []int
	trial    []int
	// addFn and touchFn are add and touch, bound once.
	addFn, touchFn func(at []int32) bool
	released       bool
}

// raceChecks is set under the race detector (race.go): a released
// canonical is then marked and dropped instead of pooled, so that a use
// after release panics instead of finding scratch the pool handed on.
var raceChecks bool

// canonicals holds released canonicals with their scratch.
var canonicals = sync.Pool{New: func() any {
	c := &canonical{seen: make(map[uint64]int32)}
	c.addFn, c.touchFn = c.add, c.touch
	return c
}}

// setSeed hashes the sets of atoms rewritings meets.
var setSeed = maphash.MakeSeed()

// acquireCanonical returns an empty canonical on search s from the pool.
func acquireCanonical(s *containment.Search) *canonical {
	c := canonicals.Get().(*canonical)
	c.s, c.st = s, Stats{}
	c.body, c.terms, c.h, c.first = c.body[:0], c.terms[:0], c.h[:0], c.first[:0]
	return c
}

// release empties c of every query it was given or built and returns it to
// the pool; nothing c handed out may be used after it.
func (c *canonical) release() {
	c.live()
	c.s, c.query, c.qm, c.v, c.implied, c.comps = nil, nil, nil, nil, nil, nil
	// Cleared up to what this search used, so that a pooled canonical
	// refers to no array but its own.
	clear(c.body)
	clear(c.terms)
	clear(c.args)
	clear(c.x.body)
	clear(c.x.terms)
	clear(c.x.comps)
	clear(c.x.names)
	clear(c.cut.Body)
	clear(c.cut.Comparisons)
	c.exp, c.cut = cq.Query{}, cq.Query{Body: c.cut.Body[:0], Comparisons: c.cut.Comparisons[:0]}
	if raceChecks {
		c.released = true // dropped, so a use after release finds it marked
		return
	}
	canonicals.Put(c)
}

// live panics when c has been released.
func (c *canonical) live() {
	if c.released {
		panic("core: canonical rewriting used after release")
	}
}

// canonical builds the canonical rewriting of qm in c, and reports whether
// it has a view atom.
func (r *Rewriter) canonical(c *canonical, qm *cq.Query) bool {
	c.live()
	s := c.s
	c.query = qm
	for i := range r.Views.Len() {
		c.v = r.Views.View(i)
		s.BodyMappings(&c.v.Numbered, qm, c.addFn)
	}
	if c.st.Applications, c.views = len(c.body), len(c.body); c.views == 0 {
		return false
	}
	if r.Opt.AllowPartial {
		c.body = append(c.body, qm.Body...)
		for i := range qm.Body {
			c.first, c.h = append(c.first, i), append(c.h, int32(i))
		}
	}
	if r.Opt.SkipMinimize {
		c.h = nil // qm need not be minimal, so the filter could lose a mapping
	}
	if r.Opt.KeepComparisons {
		c.comps = qm.Comparisons
	}
	exp, err := c.x.expand(&cq.Query{Head: qm.Head, Body: c.body}, r.Views)
	if err != nil {
		return false // unreachable: each view atom is an image of its view's head
	}
	c.exp = exp
	c.pure = len(qm.Comparisons) == 0 && len(c.exp.Comparisons) == 0
	// Without comparisons qm is the one query s numbers in its Prepare
	// slot; with them equivalent numbers each candidate's unfolding there.
	if c.pure {
		c.qm = s.Prepare(qm)
	} else {
		c.qm = containment.Prepare(qm)
	}
	c.ends = resize(&c.ends, 2*len(c.body)+2)
	c.end, c.cend = c.ends[:len(c.body)+1], c.ends[len(c.body)+1:]
	for i, a := range c.body {
		c.end[i+1], c.cend[i+1] = c.end[i]+1, c.cend[i]
		if v := r.Views.view(a.Pred); v != nil {
			c.end[i+1], c.cend[i+1] = c.end[i]+len(v.Query.Body), c.cend[i]+len(v.Query.Comparisons)
		}
	}
	return true
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
			c.implied = constraints.NewSet(c.query.Comparisons)
		}
		left, right := v.Comparison(j)
		if !c.implied.Implies(cq.Comparison{Left: image(s, left, cmp.Left), Op: cmp.Op, Right: image(s, right, cmp.Right)}) {
			return true
		}
	}
	atom.Args = grab(&c.terms, len(c.args))
	copy(atom.Args, c.args)
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
	c.live()
	n := len(c.body)
	c.sets, c.prev, c.cands, c.limit = c.sets[:0], c.prev[:0], c.cands[:0], limit
	if !c.pure {
		if c.equivalent(c.members(nil)) {
			for range n {
				c.sets = append(c.sets, 1)
			}
			c.cands = append(c.cands, 0)
		}
	} else {
		c.key = resize(&c.key, n)
		clear(c.seen)
		c.s.AtomMappings(c.qm, &c.exp, c.h, c.touchFn)
	}
	c.found, c.foundEnd = c.found[:0], c.foundEnd[:0]
	for _, k := range c.cands {
		set := c.sets[int(k)*n : int(k+1)*n]
		if c.holdsFound(set) {
			continue
		}
		c.st.CandidatesTried++
		c.trial = slices.Grow(c.trial[:0], n)
		kept, _ := shrinkOnce(c.members(set), c.trial, c.equivalent)
		slices.SortStableFunc(kept, func(a, b int) int { return c.first[a] - c.first[b] })
		c.found = append(c.found, kept...)
		c.foundEnd = append(c.foundEnd, len(c.found))
	}
	if len(c.foundEnd) == 0 {
		return nil
	}
	results := make([]*Rewriting, len(c.foundEnd))
	start := 0
	for i, end := range c.foundEnd {
		results[i] = c.keep(c.found[start:end])
		start = end
	}
	return results
}

// touch records the set of atoms of body that the mapping of qm yielded as
// at touches, unless it met the set before, and lists it as a candidate
// when it holds a view atom.
func (c *canonical) touch(at []int32) bool {
	key, n := c.key, len(c.body)
	clear(key)
	for _, j := range at {
		key[sort.SearchInts(c.end, int(j)+1)-1] = 1
	}
	h := maphash.Bytes(setSeed, key)
	newest, ok := c.seen[h]
	if !ok {
		newest = -1
	}
	for i := newest; i >= 0; i = c.prev[i] {
		if bytes.Equal(c.sets[int(i)*n:int(i+1)*n], key) {
			return len(c.cands) < c.limit
		}
	}
	c.seen[h] = int32(len(c.prev))
	if slices.Contains(key[:c.views], 1) {
		c.cands = append(c.cands, int32(len(c.prev)))
	}
	c.sets, c.prev = append(c.sets, key...), append(c.prev, newest)
	return len(c.cands) < c.limit
}

// holdsFound reports whether set holds every atom of a rewriting found.
func (c *canonical) holdsFound(set []byte) bool {
	start := 0
	for _, end := range c.foundEnd {
		if holds(set, c.found[start:end]) {
			return true
		}
		start = end
	}
	return false
}

// members lists, in c.kept, the atoms a set holds in increasing order, or
// every atom of body for a nil set.
func (c *canonical) members(set []byte) []int {
	c.kept = c.kept[:0]
	for i := range len(c.body) {
		if set == nil || set[i] == 1 {
			c.kept = append(c.kept, i)
		}
	}
	return c.kept
}

// keep copies the rewriting made of the atoms kept, and its unfolding, out
// of c's scratch: one allocation holds the Rewriting and its two queries,
// one their atoms, one their terms and one, when there are any, their
// comparisons. Both queries share qm's head.
func (c *canonical) keep(kept []int) *Rewriting {
	exp := c.restrict(kept)
	nt := 0
	for _, i := range kept {
		nt += len(c.body[i].Args)
	}
	for _, a := range exp.Body {
		nt += len(a.Args)
	}
	b := new(struct {
		rw     Rewriting
		q, exp cq.Query
	})
	atoms, terms := make([]cq.Atom, 0, len(kept)+len(exp.Body)), make([]cq.Term, 0, nt)
	copyAtom := func(a cq.Atom) {
		start := len(terms)
		terms = append(terms, a.Args...)
		atoms = append(atoms, cq.Atom{Pred: a.Pred, Args: terms[start:len(terms):len(terms)]})
	}
	for _, i := range kept {
		copyAtom(c.body[i])
	}
	for _, a := range exp.Body {
		copyAtom(a)
	}
	nk := len(kept)
	b.q = cq.Query{Head: exp.Head, Body: atoms[:nk:nk]}
	b.exp = cq.Query{Head: exp.Head, Body: atoms[nk:]}
	nc := len(exp.Comparisons)
	for _, cmp := range c.comps {
		if exposes(&b.q, cmp) {
			nc++
		}
	}
	if nc > 0 {
		comps := make([]cq.Comparison, 0, nc)
		for _, cmp := range c.comps {
			if exposes(&b.q, cmp) {
				comps = append(comps, cmp)
			}
		}
		nq := len(comps)
		b.q.Comparisons = comps[:nq:nq]
		if len(exp.Comparisons) > 0 {
			b.exp.Comparisons = append(comps[nq:nq], exp.Comparisons...)
		}
	}
	b.rw = Rewriting{Query: &b.q, Expansion: &b.exp, Complete: slices.Max(kept) < c.views}
	return &b.rw
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
func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// resize sets *s to n zero elements, reusing its array when it is large
// enough, and returns it.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}

// grab returns a window of n elements at the end of *buf and extends *buf
// over it. When the array is full it continues in a new one of twice the
// size, so a window handed out earlier is never moved or overwritten until
// *buf is cut back to empty. A window keeps whatever an earlier use of the
// array left in it: the caller writes every element.
func grab[T any](buf *[]T, n int) []T {
	b := *buf
	if len(b)+n > cap(b) {
		b = make([]T, 0, max(2*cap(b), n, 16))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

// holds reports whether set holds every atom of kept.
func holds(set []byte, kept []int) bool {
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
