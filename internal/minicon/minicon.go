// Package minicon implements the MiniCon algorithm (Pottinger & Halevy) for
// rewriting conjunctive queries using views, producing a maximally-contained
// rewriting as a union of conjunctive queries.
//
// MiniCon improves on the Bucket algorithm by reasoning, at coverage time,
// about how a view interacts with the *whole* query: when a query variable
// is mapped to an existential view variable, every query subgoal mentioning
// that variable must be covered by the same view usage. The resulting
// MiniCon Descriptions (MCDs) combine only in pairwise-disjoint fashion,
// which removes the bucket cartesian product — the effect measured by the
// F1–F3 experiments.
package minicon

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/cq"
)

// A view term, as an MCD stores it: a variable id of the view (>= 0), or ^k
// for constant k of the former's table. unmapped marks a query variable the
// MCD says nothing about.
const unmapped = math.MinInt32

// MCD is a MiniCon Description: one way of using a view to cover a set of
// query subgoals, satisfying the MiniCon property. Its tables are indexed by
// variable ids — the query's (cq.Numbered) and the view's own (core.View) —
// so the two can never collide and the view is never renamed apart.
type MCD struct {
	// View is the view definition.
	View *cq.Query
	view *core.View
	// f is what the MCDs of one former.form call share.
	f *former
	// phi maps a query variable id to the view term it lands on.
	phi []int32
	// parent is a union-find over the view's variables (the head
	// homomorphism h): v is a root where parent[v] == v, merged into another
	// variable where parent[v] >= 0, bound to a constant where it is ^k.
	parent []int32
	// exposed[v] is 1 where root v is distinguished.
	exposed []int32
	// covers is the sorted set of covered query subgoal indices.
	covers []int32
	// table is the one array phi, parent, exposed and covers are cut from.
	table []int32
	// sig is the closed MCD up to the names of view variables, for
	// deduplication: per query variable unmapped, a constant, or which
	// query variables share its image and whether that image is exposed.
	sig []int32
}

// clone copies the MCD and its tables.
func (m *MCD) clone() *MCD {
	c := *m
	c.carve(slices.Clone(m.table), len(m.covers))
	return &c
}

// carve cuts the MCD's tables from one array of nq + 2*nv + len(q.Body)
// entries, of which covers uses the first `covered` of its share.
func (m *MCD) carve(table []int32, covered int) {
	nq, nv := m.f.nq.NumVars(), m.view.NumVars()
	m.table = table
	m.phi = table[:nq]
	m.parent = table[nq : nq+nv]
	m.exposed = table[nq+nv : nq+2*nv]
	m.covers = table[nq+2*nv : nq+2*nv+covered]
}

// find resolves a view term to its class: a root variable or a constant.
func (m *MCD) find(t int32) int32 {
	for t >= 0 && m.parent[t] != t {
		t = m.parent[t]
	}
	return t
}

// isExposed reports whether a view term is visible in the rewriting: a
// constant or a class whose root is marked distinguished.
func (m *MCD) isExposed(t int32) bool {
	t = m.find(t)
	return t < 0 || m.exposed[t] != 0
}

// equate merges two view terms. It fails on two distinct constants, and on
// a class with an existential root: the head homomorphism maps only
// distinguished variables, so an existential is equal to nothing but itself
// — merged with another class or bound to a constant, the view's expansion
// would lose the join or the constant.
func (m *MCD) equate(a, b int32) bool {
	a, b = m.find(a), m.find(b)
	switch {
	case a == b:
		return true
	case a >= 0 && m.exposed[a] == 0, b >= 0 && m.exposed[b] == 0:
		return false
	case a >= 0: // both exposed: the merged class stays exposed
		m.parent[a] = b
		return true
	case b >= 0:
		m.parent[b] = a
		return true
	default:
		return false
	}
}

// covered reports whether subgoal gi is in the cover.
func (m *MCD) covered(gi int) bool {
	_, ok := slices.BinarySearch(m.covers, int32(gi))
	return ok
}

// image returns the view term query variable name maps to, resolved: a
// constant, or the view's own variable at the root of the class.
func (m *MCD) image(name string) (cq.Term, bool) {
	x := m.f.nq.ID(name)
	if x < 0 || m.phi[x] == unmapped {
		return cq.Term{}, false
	}
	if r := m.find(m.phi[x]); r >= 0 {
		return cq.Var(m.view.Names[r]), true
	} else {
		return m.f.consts[^r], true
	}
}

// String renders the MCD for diagnostics.
func (m *MCD) String() string {
	parts := make([]string, 0, len(m.phi))
	for _, x := range m.f.nq.Names {
		if t, ok := m.image(x); ok {
			parts = append(parts, x+"->"+t.String())
		}
	}
	sort.Strings(parts)
	covs := make([]string, len(m.covers))
	for i, c := range m.covers {
		covs[i] = strconv.Itoa(int(c))
	}
	return fmt.Sprintf("MCD(%s covers {%s} via {%s})", m.View.Name(), strings.Join(covs, ","), strings.Join(parts, ", "))
}

// sign computes sig.
func (m *MCD) sign() {
	m.sig = make([]int32, len(m.phi))
	for x, t := range m.phi {
		if t == unmapped {
			m.sig[x] = unmapped
			continue
		}
		r := m.find(t)
		if r < 0 {
			m.sig[x] = r
			continue
		}
		// The lowest query variable with the same image names the group.
		group := slices.IndexFunc(m.phi, func(u int32) bool { return u != unmapped && m.find(u) == r })
		m.sig[x] = int32(group)<<1 | m.exposed[r]
	}
}

// Stats reports the work done by one run.
type Stats struct {
	MCDs             int
	Combinations     int
	ContainmentTests int
	Kept             int
}

// Options configures the algorithm.
type Options struct {
	// VerifyCandidates re-checks each combined rewriting by unfolding and
	// containment. MCD formation makes every combination sound by
	// construction for pure conjunctive queries, so verification is needed
	// only when the query or a view has comparisons; the F1–F3 experiments
	// toggle it to measure its cost.
	VerifyCandidates bool
	// SkipMinimizeUnion returns the raw union without subsumption pruning.
	SkipMinimizeUnion bool
	// KeepComparisons attaches the query's comparisons to candidates when
	// all their terms are exposed.
	KeepComparisons bool
	// MaxCombinations aborts combination enumeration (0 = unlimited).
	MaxCombinations int
}

// Rewrite runs MiniCon and returns the maximally-contained rewriting of q
// using the views, plus statistics.
func Rewrite(q *cq.Query, vs *core.ViewSet, opt Options) (*cq.Union, Stats, error) {
	var st Stats
	if err := q.Validate(); err != nil {
		return nil, st, err
	}
	f := newFormer(q, vs)
	mcds := f.form()
	st.MCDs = len(mcds)

	// One search serves every candidate's verification and the union's
	// minimisation; q is the containing query of every test. It comes from
	// the pool with the arrays earlier searches grew.
	search := containment.AcquireSearch(nil)
	defer search.Release()
	pq := containment.Prepare(q)

	result := &cq.Union{}
	var seen cq.QuerySet
	n := len(q.Body)
	byFirst := make([][]*MCD, n)
	for _, m := range mcds {
		byFirst[m.covers[0]] = append(byFirst[m.covers[0]], m)
	}

	var selected []*MCD
	covered := make([]bool, n)
	var combine func(next int) bool
	combine = func(next int) bool {
		for next < n && covered[next] {
			next++
		}
		if next == n {
			st.Combinations++
			if opt.MaxCombinations > 0 && st.Combinations > opt.MaxCombinations {
				return false
			}
			cand := f.candidate(selected, opt)
			if cand == nil {
				return true
			}
			if !seen.Add(cand) {
				return true
			}
			if opt.VerifyCandidates {
				exp, err := core.Expand(cand, vs)
				st.ContainmentTests++
				if err != nil || !search.Contained(search.Prepare(exp), pq) {
					return true
				}
			}
			result.Add(cand)
			st.Kept++
			return true
		}
		// MCDs combine only with pairwise disjoint covers (the MiniCon
		// combination property): pick an MCD whose first covered subgoal
		// is exactly `next`.
		for _, m := range byFirst[next] {
			ok := true
			for _, c := range m.covers {
				if covered[c] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, c := range m.covers {
				covered[c] = true
			}
			selected = append(selected, m)
			cont := combine(next + 1)
			selected = selected[:len(selected)-1]
			for _, c := range m.covers {
				covered[c] = false
			}
			if !cont {
				return false
			}
		}
		return true
	}
	combine(0)

	if !opt.SkipMinimizeUnion {
		result = search.MinimizeUnion(result)
	}
	return result, st, nil
}

// former holds what the MCDs of one query share: the numbered query, the
// constants their tables refer to, and the scratch candidates are assembled
// in.
type former struct {
	q  *cq.Query
	vs *core.ViewSet
	nq cq.Numbered
	// head[x] reports whether query variable x is distinguished.
	head []bool
	// consts interns the constants MCD tables mention as ^k.
	consts []cq.Term
	out    []*MCD

	// Scratch of candidate. eq is a union-find over the query's variables:
	// eq[x] is x while x is free, another variable once merged, ^k once
	// bound to a constant. codes holds the candidate's atoms flattened, an
	// argument being a query variable id, ^k, or nq+j for fresh name j.
	eq    []int32
	codes []int32
	group []int32
	names *cq.Freshener
	fresh []cq.Term
}

func newFormer(q *cq.Query, vs *core.ViewSet) *former {
	f := &former{q: q, vs: vs, nq: cq.Number(q)}
	f.head = make([]bool, f.nq.NumVars())
	for _, x := range f.nq.Head() {
		if x != cq.ConstArg {
			f.head[x] = true
		}
	}
	return f
}

// constant interns t and returns its view-term code.
func (f *former) constant(t cq.Term) int32 {
	k := slices.Index(f.consts, t)
	if k < 0 {
		k = len(f.consts)
		f.consts = append(f.consts, t)
	}
	return ^int32(k)
}

// form enumerates the minimal MCDs of every view against the query. The
// order is fixed — by seed subgoal, then view in insertion order, then view
// atom, then, within one seed's closure, lowest unresolved query variable
// first — so that the union Rewrite builds from them comes out member for
// member the same on every call.
func (f *former) form() []*MCD {
	for gi, g := range f.q.Body {
		for _, occ := range f.vs.Occurrences(g.Pred, len(g.Args)) {
			v := f.vs.View(occ.View)
			m := &MCD{View: v.Query, view: v, f: f}
			m.carve(make([]int32, f.nq.NumVars()+2*v.NumVars()+len(f.q.Body)), 0)
			for x := range m.phi {
				m.phi[x] = unmapped
			}
			for id := range m.parent {
				m.parent[id] = int32(id)
				if !v.Existential(int32(id)) {
					m.exposed[id] = 1
				}
			}
			if f.cover(m, gi, occ.Atom) {
				f.close(m)
			}
		}
	}
	return f.out
}

// cover extends the MCD so that query subgoal gi is covered by view atom ai,
// which has gi's predicate and arity. It records the coverage and reports
// failure when the MiniCon conditions are violated.
func (f *former) cover(m *MCD, gi, ai int) bool {
	g, a := f.q.Body[gi], m.view.Query.Body[ai]
	vids := m.view.Atom(ai)
	for i, x := range f.nq.Atom(gi) {
		vt := vids[i]
		if vt == cq.ConstArg {
			vt = f.constant(a.Args[i])
		}
		vimg := m.find(vt)
		if x == cq.ConstArg {
			if !m.equate(vimg, f.constant(g.Args[i])) {
				return false
			}
			continue
		}
		if prev := m.phi[x]; prev != unmapped {
			if !m.equate(prev, vimg) {
				return false
			}
		} else {
			m.phi[x] = vimg
		}
	}
	at, _ := slices.BinarySearch(m.covers, int32(gi))
	m.covers = slices.Insert(m.covers, at, int32(gi))
	return true
}

// close enforces the MiniCon property exhaustively: every query variable
// mapped to a non-exposed view term must have all its subgoals covered by
// this MCD, and a query head variable must map to an exposed term. When a
// forced subgoal can be covered by several view atoms, every choice is
// explored (the choices lead to different — all minimal — MCDs). The
// obligation taken up is always that of the lowest such variable, which is
// what makes the enumeration order a function of the inputs. Closed MCDs are
// added to f.out unless an equal one is there.
func (f *former) close(m *MCD) {
	forced := -1
	for x, t := range m.phi {
		if t == unmapped || m.isExposed(t) {
			continue
		}
		if f.head[x] {
			return // unfixable: head variable on an existential
		}
		forced = f.uncovered(m, int32(x))
		if forced >= 0 {
			break
		}
	}
	if forced < 0 {
		m.sign()
		same := func(o *MCD) bool {
			return o.view == m.view && slices.Equal(o.covers, m.covers) && slices.Equal(o.sig, m.sig)
		}
		if !slices.ContainsFunc(f.out, same) {
			f.out = append(f.out, m)
		}
		return
	}
	// Branch over every view atom that can cover the forced subgoal.
	g := f.q.Body[forced]
	for ai, a := range m.view.Query.Body {
		if a.Pred != g.Pred || len(a.Args) != len(g.Args) {
			continue
		}
		if branch := m.clone(); f.cover(branch, forced, ai) {
			f.close(branch)
		}
	}
}

// uncovered returns the first subgoal mentioning query variable x that m
// does not cover, or -1.
func (f *former) uncovered(m *MCD, x int32) int {
	for gi := range f.q.Body {
		if slices.Contains(f.nq.Atom(gi), x) && !m.covered(gi) {
			return gi
		}
	}
	return -1
}

// walk resolves a query variable through eq: to a free variable's id or to
// ^k.
func (f *former) walk(x int32) int32 {
	for x >= 0 && f.eq[x] != x {
		x = f.eq[x]
	}
	return x
}

// unify merges query variable x with y, a query variable or ^k. It fails on
// two distinct constants.
func (f *former) unify(x, y int32) bool {
	x, y = f.walk(x), f.walk(y)
	switch {
	case x == y:
		return true
	case x >= 0:
		f.eq[x] = y
		return true
	case y >= 0:
		f.eq[y] = x
		return true
	default:
		return false
	}
}

// freshName returns the j-th name of the sequence F0, F1, ... less the names
// the query uses. Every candidate counts from the start of it.
func (f *former) freshName(j int) cq.Term {
	if f.names == nil {
		f.names = cq.NewFreshener("F")
		f.names.Reserve(f.q)
	}
	for len(f.fresh) <= j {
		f.fresh = append(f.fresh, f.names.Fresh())
	}
	return f.fresh[j]
}

// candidate assembles a rewriting from a set of disjoint MCDs, or returns nil
// when their bindings conflict or the result would not be a safe query.
func (f *former) candidate(mcds []*MCD, opt Options) *cq.Query {
	nq := int32(f.nq.NumVars())
	// eq accumulates equalities forced on query variables (shared view
	// images and constant bindings).
	f.eq = f.eq[:0]
	for x := int32(0); x < nq; x++ {
		f.eq = append(f.eq, x)
	}
	f.codes = f.codes[:0]
	fresh := 0
	for _, m := range mcds {
		for x, t := range m.phi {
			if t == unmapped {
				continue
			}
			if r := m.find(t); r < 0 && !f.unify(int32(x), r) {
				return nil // query variable bound to two constants
			}
		}
		start := len(f.codes)
		for i, h := range m.view.Head() {
			var r int32
			if h == cq.ConstArg {
				r = f.constant(m.View.Head.Args[i])
			} else {
				r = m.find(h)
			}
			if r < 0 {
				f.codes = append(f.codes, r)
				continue
			}
			// A class met at an earlier head position keeps the term it
			// got there.
			if j := slices.IndexFunc(m.view.Head()[:i], func(e int32) bool { return e != cq.ConstArg && m.find(e) == r }); j >= 0 {
				f.codes = append(f.codes, f.codes[start+j])
				continue
			}
			// The query variables landing on this class: the first by name
			// stands for all of them.
			f.group = f.group[:0]
			for x, t := range m.phi {
				if t != unmapped && m.find(t) == r {
					f.group = append(f.group, int32(x))
				}
			}
			if len(f.group) == 0 {
				f.codes = append(f.codes, nq+int32(fresh))
				fresh++
				continue
			}
			slices.SortFunc(f.group, func(a, b int32) int { return strings.Compare(f.nq.Names[a], f.nq.Names[b]) })
			for _, other := range f.group[1:] {
				if !f.unify(other, f.group[0]) {
					return nil
				}
			}
			f.codes = append(f.codes, f.group[0])
		}
	}

	term := func(code int32) cq.Term {
		if code >= nq {
			return f.freshName(int(code - nq))
		}
		if code = f.walk(code); code < 0 {
			return f.consts[^code]
		}
		return cq.Var(f.nq.Names[code])
	}
	resolved := func(id int32, t cq.Term) cq.Term {
		if id == cq.ConstArg {
			return t
		}
		return term(id)
	}
	// The head and every body atom are windows onto one array of terms,
	// each capped at its own length; the body's terms are f.codes in order.
	nh := len(f.q.Head.Args)
	terms := make([]cq.Term, nh+len(f.codes))
	cand := &cq.Query{Head: cq.Atom{Pred: f.q.Head.Pred, Args: terms[:nh:nh]}, Body: make([]cq.Atom, len(mcds))}
	for i, id := range f.nq.Head() {
		cand.Head.Args[i] = resolved(id, f.q.Head.Args[i])
	}
	body := terms[nh:]
	for k, code := range f.codes {
		body[k] = term(code)
	}
	for i, m := range mcds {
		n := len(m.View.Head.Args)
		cand.Body[i] = cq.Atom{Pred: m.View.Name(), Args: body[:n:n]}
		body = body[n:]
	}
	if opt.KeepComparisons {
		// Keep only comparisons whose terms are exposed in the body.
		exposed := func(t cq.Term) bool { return t.IsConst() || cand.InBody(t) }
		for i, c := range f.q.Comparisons {
			l, r := f.nq.Comparison(i)
			c.Left, c.Right = resolved(l, c.Left), resolved(r, c.Right)
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
