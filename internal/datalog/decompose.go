package datalog

import (
	"slices"
	"sync"

	"repro/internal/cq"
)

// Connected-component decomposition. A conjunctive query whose join graph
// is disconnected would otherwise evaluate as a cross product of its
// components; rewritings produced by the view-based algorithms frequently
// have this shape (several view atoms sharing no variables). Evaluating
// each component independently, projecting onto the head variables early,
// and combining the (small) projected results turns an O(∏ |component|)
// enumeration into O(Σ |component| + |answers|).

// component is one connected piece of a query's body.
type component struct {
	atoms []cq.Atom
	comps []cq.Comparison
	// headVars are the head variables covered by this component, in
	// first-occurrence order of the query head.
	headVars []string
}

// compileScratch is the short-lived state of one compile, kept between
// compiles in compileScratchPool: splitComponents' union-find, variable map
// and components, whose atoms, comparisons and head variables are windows
// onto three arrays, and joinOrder's list of the atoms not yet joined.
// Nothing a compile returns refers to it.
type compileScratch struct {
	nodes     []int // union-find parents, then component numbers
	varFirst  map[string]int
	comps     []component
	atoms     []cq.Atom
	cmps      []cq.Comparison
	headVars  []string
	remaining []int
	released  bool // set by release under the race detector
}

var compileScratchPool = sync.Pool{New: func() any { return new(compileScratch) }}

// raceChecks is set under the race detector (race.go): a released compile
// scratch is then marked and dropped instead of pooled, so that a use after
// release panics instead of finding scratch the pool handed on.
var raceChecks bool

// release empties the scratch of the query it was given and returns it to
// the pool.
func (sc *compileScratch) release() {
	sc.live()
	clear(sc.varFirst)
	clear(sc.comps)
	clear(sc.atoms)
	clear(sc.cmps)
	clear(sc.headVars)
	if raceChecks {
		sc.released = true // dropped, so a use after release finds it marked
		return
	}
	compileScratchPool.Put(sc)
}

// live panics when sc has been released.
func (sc *compileScratch) live() {
	if sc.released {
		panic("datalog: compile scratch used after release")
	}
}

// unjoined returns joinOrder's list of the atoms not yet joined.
func (sc *compileScratch) unjoined() *[]int {
	sc.live()
	return &sc.remaining
}

// splitComponents partitions the body atoms and comparisons of q into
// connected components, numbered by their first atom, in sc. Comparisons
// act as edges too: a comparison whose variables span two components merges
// them. A connected body is its own one component's atoms. The components
// are valid until sc is next used.
func splitComponents(q *cq.Query, sc *compileScratch) []component {
	sc.live()
	n := len(q.Body)
	// parent is the union-find forest over the body atoms; num then numbers
	// each root's component.
	sc.nodes = slices.Grow(sc.nodes[:0], 2*n)[:2*n]
	parent, num := sc.nodes[:n], sc.nodes[n:]
	clear(num)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	// Atoms sharing a variable are connected.
	if sc.varFirst == nil {
		sc.varFirst = make(map[string]int)
	}
	varFirst := sc.varFirst
	clear(varFirst)
	for i, a := range q.Body {
		for _, t := range a.Args {
			if !t.IsVar() {
				continue
			}
			if j, ok := varFirst[t.Lex]; ok {
				union(i, j)
			} else {
				varFirst[t.Lex] = i
			}
		}
	}
	// Comparisons connect the atoms owning their variables.
	for _, c := range q.Comparisons {
		l, lok := varFirst[c.Left.Lex]
		r, rok := varFirst[c.Right.Lex]
		if lok && rok && c.Left.IsVar() && c.Right.IsVar() {
			union(l, r)
		}
	}

	// Number the components in order of their first atoms (num holds the
	// number plus one, so zero means unnumbered).
	k := 0
	for i := range q.Body {
		if r := find(i); num[r] == 0 {
			k++
			num[r] = k
		}
	}
	compOf := func(atom int) int { return num[find(atom)] - 1 }
	// A comparison whose variables no atom binds (a constant-only one, say)
	// attaches to the first component: it filters everything or nothing.
	compOfComparison := func(c cq.Comparison) int {
		for _, t := range [2]cq.Term{c.Left, c.Right} {
			if j, ok := varFirst[t.Lex]; ok && t.IsVar() {
				return compOf(j)
			}
		}
		return 0
	}
	sc.comps = slices.Grow(sc.comps[:0], k)[:k]
	out := sc.comps
	clear(out)
	sc.atoms = slices.Grow(sc.atoms[:0], n)
	sc.cmps = slices.Grow(sc.cmps[:0], len(q.Comparisons))
	sc.headVars = slices.Grow(sc.headVars[:0], len(q.Head.Args))
	for c := range out {
		if k == 1 {
			out[c].atoms = q.Body
		} else {
			start := len(sc.atoms)
			for i, a := range q.Body {
				if compOf(i) == c {
					sc.atoms = append(sc.atoms, a)
				}
			}
			out[c].atoms = sc.atoms[start:len(sc.atoms):len(sc.atoms)]
		}
		start := len(sc.cmps)
		for _, cmp := range q.Comparisons {
			if compOfComparison(cmp) == c {
				sc.cmps = append(sc.cmps, cmp)
			}
		}
		out[c].comps = sc.cmps[start:len(sc.cmps):len(sc.cmps)]
		// The head variables the component provides, in first-occurrence
		// order of the query head.
		start = len(sc.headVars)
		for i, t := range q.Head.Args {
			if !t.IsVar() || slices.Contains(q.Head.Args[:i], t) {
				continue
			}
			if j, ok := varFirst[t.Lex]; ok && compOf(j) == c {
				sc.headVars = append(sc.headVars, t.Lex)
			}
		}
		out[c].headVars = sc.headVars[start:len(sc.headVars):len(sc.headVars)]
	}
	return out
}
