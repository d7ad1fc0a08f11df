// Package containment implements containment, equivalence and minimisation
// of conjunctive queries, the technical core of "Answering Queries Using
// Views" (PODS 1995).
//
// For pure conjunctive queries the Chandra–Merlin theorem applies:
// Q2 ⊑ Q1 iff there is a containment mapping from Q1 to Q2. For queries
// with arithmetic comparisons the package provides both the standard sound
// homomorphism test and the complete (exponential) linearisation test; the
// paper's lower bounds show the exponential cannot be avoided in general.
package containment

import (
	"sync"

	"repro/internal/cq"
)

// Mapping is a containment mapping: a substitution over the source query's
// variables. It maps the source head to the target head positionally and
// every source body atom to some target body atom.
type Mapping = cq.Subst

// Search is the one mapping search every test of this package runs on. A
// rewriting call owns one and reuses it for all its containment tests, so
// the substitution, the trail and the candidate lists are allocated once per
// call and not once per test; a search taken from AcquireSearch keeps them
// from one call to the next. The substitution is a slice indexed by the
// source query's variable ids (cq.Numbered); a cq.Subst is built only for a
// mapping handed to a caller.
//
// The zero value is ready to use. A Search is not safe for concurrent use,
// and a yield callback must not start another enumeration on the Search that
// is calling it.
type Search struct {
	// Memo, when non-nil, memoises Contained and Equivalent by canonical
	// fingerprint. Minimize and MinimizeUnion never consult it.
	Memo *Memo

	src *cq.Numbered
	dst *cq.Query
	// order lists the source body atoms in search order; the targets with
	// the predicate of source atom i are cand[candOff[i]:candOff[i+1]].
	order   []int32
	cand    []int32
	candOff []int32
	// sub[v] is the image of source variable v where set[v]; trail lists the
	// variables bound so far, in binding order.
	sub   []cq.Term
	set   []bool
	trail []int32
	// at[i] is the target atom source atom i is mapped onto, while it is.
	at []int32
	// yield is called with at for each mapping found; nil stops at the
	// first one, which found records.
	yield func(at []int32) bool
	found bool

	// allow, while AtomMappings runs with a filter, is the source atom each
	// target atom may receive: target j is a candidate for source atom i
	// only where allow[j] == i.
	allow []int32
	// steps counts the calls of step since the search was acquired.
	steps int

	used, bound []bool          // scratch of arrange
	cut         cq.Query        // scratch of Minimize: the query less one body atom
	rest        []cq.Comparison // scratch of Minimize: the comparisons less one
	min         Prepared        // Minimize's container, renumbered every round
	held        Prepared        // what Prepare hands out
	kept        []Prepared      // MinimizeUnion's members
}

// searches holds released searches with their scratch.
var searches = sync.Pool{New: func() any { return new(Search) }}

// AcquireSearch returns a search from a pool shared by every goroutine, with
// the arrays an earlier call grew, consulting memo (which may be nil). The
// caller owns it until it calls Release; a plan build that runs one search
// after another on its goroutine gets the same search back each time.
func AcquireSearch(memo *Memo) *Search {
	s := searches.Get().(*Search)
	s.Memo = memo
	return s
}

// Release empties s of every query it was given and returns it to the pool.
// Nothing s handed out — a Prepared of s.Prepare, a yielded slice — may be
// used after it. A query Minimize or MinimizeUnion returned is never s's
// scratch and stays valid.
func (s *Search) Release() {
	s.Memo, s.src, s.dst, s.yield, s.allow, s.steps = nil, nil, nil, nil, nil, 0
	s.cut = cq.Query{Body: s.cut.Body[:0]}
	s.rest = s.rest[:0]
	s.min.reset(nil)
	s.held.reset(nil)
	for i := range s.kept {
		s.kept[i].reset(nil)
	}
	searches.Put(s)
}

// Steps returns how many nodes the backtracking mapping search has visited
// since s was acquired: a measure of a search's work that does not depend on
// the clock.
func (s *Search) Steps() int { return s.steps }

// Prepared is a query readied for repeated tests by one Search: its
// numbering and its memo fingerprint are computed at most once, on first
// need. It belongs to the goroutine that made it.
type Prepared struct {
	q  *cq.Query
	n  cq.Numbered // set once n.Query is
	fp string
}

// Prepare wraps q for use with a Search. The query must not change while the
// result is in use.
func Prepare(q *cq.Query) *Prepared { return &Prepared{q: q} }

// Prepare is the package-level Prepare in s's scratch, for a query tested
// once or twice: the result, and the numbering it makes, reuse what the
// previous call's held, so it is valid only until the next call of
// s.Prepare or s.Release.
func (s *Search) Prepare(q *cq.Query) *Prepared {
	s.held.reset(q)
	return &s.held
}

// reset makes p stand for q, keeping the arrays of its numbering.
func (p *Prepared) reset(q *cq.Query) { p.q, p.n.Query, p.fp = q, nil, "" }

// Query returns the query p was made from.
func (p *Prepared) Query() *cq.Query { return p.q }

func (p *Prepared) num() *cq.Numbered {
	if p.n.Query == nil {
		p.n.Renumber(p.q)
	}
	return &p.n
}

func (p *Prepared) fingerprint() string {
	if p.fp == "" {
		p.fp = cq.Fingerprint(p.q)
	}
	return p.fp
}

// resize returns s with length n and every element zero, reusing its array
// when that is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// candidates lists, for every body atom of from, the body atoms of to with
// the same predicate. It reports false when some atom has none: then no
// mapping exists, and nothing else has been set up.
func (s *Search) candidates(from, to *cq.Query) bool {
	s.cand = s.cand[:0]
	s.candOff = resize(s.candOff, len(from.Body)+1)
	for i, a := range from.Body {
		s.candOff[i] = int32(len(s.cand))
		for j, b := range to.Body {
			if a.Pred == b.Pred && (s.allow == nil || s.allow[j] == int32(i)) {
				s.cand = append(s.cand, int32(j))
			}
		}
		if int(s.candOff[i]) == len(s.cand) {
			return false
		}
	}
	s.candOff[len(from.Body)] = int32(len(s.cand))
	return true
}

// arrange readies the search for mappings from src's body into dst's body,
// after candidates(src.Query, dst) succeeded: an empty substitution and the
// source atoms ordered connectivity-first — repeatedly the atom with the
// most variables already bound by earlier atoms, ties broken by the smaller
// candidate set. This keeps the backtracking search from enumerating
// cartesian products of unconnected subgoals (critical on clique-shaped
// patterns, the paper's NP-hardness regime).
func (s *Search) arrange(src *cq.Numbered, dst *cq.Query) {
	s.src, s.dst = src, dst
	nv := src.NumVars()
	s.sub = resize(s.sub, nv)
	s.trail = s.trail[:0]
	n := len(src.Query.Body)
	s.order = s.order[:0]
	s.used = resize(s.used, n)
	s.set = resize(s.set, nv)
	s.bound = resize(s.bound, nv)
	s.at = resize(s.at, n)
	for len(s.order) < n {
		best, bestBound, bestCand := -1, -1, int32(0)
		for i := 0; i < n; i++ {
			if s.used[i] {
				continue
			}
			nb := 0
			for _, v := range src.Atom(i) {
				if v == cq.ConstArg || s.bound[v] {
					nb++
				}
			}
			cand := s.candOff[i+1] - s.candOff[i]
			if best == -1 || nb > bestBound || nb == bestBound && cand < bestCand {
				best, bestBound, bestCand = i, nb, cand
			}
		}
		s.used[best] = true
		s.order = append(s.order, int32(best))
		for _, v := range src.Atom(best) {
			if v != cq.ConstArg {
				s.bound[v] = true
			}
		}
	}
}

// bind sets the image of source variable v, or checks it against the image
// v already has.
func (s *Search) bind(v int32, t cq.Term) bool {
	if s.set[v] {
		return s.sub[v] == t
	}
	s.set[v], s.sub[v] = true, t
	s.trail = append(s.trail, v)
	return true
}

// undo unbinds the variables bound since the trail had length mark.
func (s *Search) undo(mark int) {
	for _, v := range s.trail[mark:] {
		s.set[v] = false
	}
	s.trail = s.trail[:mark]
}

// match extends the substitution so that it maps pattern, whose argument ids
// are ids, onto target. On failure the bindings it made are undone.
func (s *Search) match(pattern cq.Atom, ids []int32, target cq.Atom) bool {
	if len(pattern.Args) != len(target.Args) {
		return false
	}
	mark := len(s.trail)
	for i, v := range ids {
		ok := false
		if v == cq.ConstArg {
			ok = pattern.Args[i] == target.Args[i]
		} else {
			ok = s.bind(v, target.Args[i])
		}
		if !ok {
			s.undo(mark)
			return false
		}
	}
	return true
}

// step backtracks over the source atoms from position k of the order. It
// reports false when the enumeration was stopped.
func (s *Search) step(k int) bool {
	s.steps++
	if k == len(s.order) {
		if s.yield == nil {
			s.found = true
			return false
		}
		return s.yield(s.at)
	}
	i := s.order[k]
	atom, ids := s.src.Query.Body[i], s.src.Atom(int(i))
	for _, j := range s.cand[s.candOff[i]:s.candOff[i+1]] {
		mark := len(s.trail)
		if !s.match(atom, ids, s.dst.Body[j]) {
			continue
		}
		s.at[i] = j
		if !s.step(k + 1) {
			return false
		}
		s.undo(mark)
	}
	return true
}

// begin readies the search for containment mappings from p onto dst — head
// onto head positionally, every body atom onto some body atom — and reports
// whether any can exist.
func (s *Search) begin(p *Prepared, dst *cq.Query) bool {
	if len(p.q.Head.Args) != len(dst.Head.Args) || !s.candidates(p.q, dst) {
		return false
	}
	s.arrange(p.num(), dst)
	from, to := p.q.Head, dst.Head
	return s.match(cq.Atom{Args: from.Args}, s.src.Head(), cq.Atom{Args: to.Args})
}

// Maps reports whether a containment mapping from p onto dst exists. It
// never consults the memo.
func (s *Search) Maps(p *Prepared, dst *cq.Query) bool {
	if !s.begin(p, dst) {
		return false
	}
	s.yield, s.found = nil, false
	s.step(0)
	return s.found
}

// mappings enumerates the containment mappings from p onto dst, handing each
// to yield as a cq.Subst that is reused between calls.
func (s *Search) mappings(p *Prepared, dst *cq.Query, yield func(Mapping) bool) {
	if !s.begin(p, dst) {
		return
	}
	m := cq.NewSubst()
	s.yield = func([]int32) bool {
		clear(m)
		s.fill(m)
		return yield(m)
	}
	s.step(0)
}

// AtomMappings enumerates the containment mappings from p onto dst, handing
// yield, for each, the index of the dst body atom that each body atom of p
// lands on: at[i] for p's atom i. The slice is reused between calls.
// Enumeration stops when yield returns false. When allow is non-nil, holding
// an entry per body atom of dst, only the mappings that send each atom i of
// p onto atoms b with allow[b] == i are enumerated.
func (s *Search) AtomMappings(p *Prepared, dst *cq.Query, allow []int32, yield func(at []int32) bool) {
	s.allow = allow
	if s.begin(p, dst) {
		s.yield = yield
		s.step(0)
	}
	s.allow = nil
}

// fill adds the current bindings to m.
func (s *Search) fill(m cq.Subst) {
	for _, v := range s.trail {
		m[s.src.Names[v]] = s.sub[v]
	}
}

// BodyMappings enumerates the substitutions over src's variables that map
// every body atom of src onto some body atom of dst; heads are ignored.
// This is the primitive of the rewriting search, where view bodies are
// mapped into query bodies. Inside yield, Image describes the current
// substitution, and at[i] is the dst body atom that src's atom i lands on;
// enumeration stops when yield returns false.
func (s *Search) BodyMappings(src *cq.Numbered, dst *cq.Query, yield func(at []int32) bool) {
	if !s.candidates(src.Query, dst) {
		return
	}
	s.arrange(src, dst)
	s.yield = yield
	s.step(0)
}

// Image returns the current image of source variable v. Valid inside a
// BodyMappings yield, where every variable of the source body is bound.
func (s *Search) Image(v int32) cq.Term { return s.sub[v] }

// FindAllMappings enumerates containment mappings from `from` onto `to`,
// invoking yield for each. Enumeration stops early when yield returns
// false. The substitution passed to yield is reused across calls; clone it
// if it must outlive the callback.
func FindAllMappings(from, to *cq.Query, yield func(Mapping) bool) {
	var s Search
	s.mappings(Prepare(from), to, yield)
}
