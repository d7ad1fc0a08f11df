package datalog

import (
	"slices"

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

// splitComponents partitions the body atoms and comparisons of q into
// connected components, numbered by their first atom. Comparisons act as
// edges too: a comparison whose variables span two components merges them.
// A connected body is its own one component's atoms.
func splitComponents(q *cq.Query) []component {
	n := len(q.Body)
	// parent is the union-find forest over the body atoms; num then numbers
	// each root's component.
	buf := make([]int, 2*n)
	parent, num := buf[:n], buf[n:]
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
	varFirst := make(map[string]int)
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
	out := make([]component, k)
	if k == 1 {
		out[0].atoms = q.Body
		out[0].headVars = make([]string, 0, len(q.Head.Args))
	} else {
		for i, a := range q.Body {
			c := compOf(i)
			out[c].atoms = append(out[c].atoms, a)
		}
	}
	for _, c := range q.Comparisons {
		// A comparison whose variables no atom binds (a constant-only one,
		// say) attaches to the first component: it filters everything or
		// nothing.
		target := 0
		for _, t := range [2]cq.Term{c.Left, c.Right} {
			if j, ok := varFirst[t.Lex]; ok && t.IsVar() {
				target = compOf(j)
				break
			}
		}
		if target < k {
			out[target].comps = append(out[target].comps, c)
		}
	}
	// Record which head variables each component provides, in
	// first-occurrence order of the query head.
	for i, t := range q.Head.Args {
		if !t.IsVar() || slices.Contains(q.Head.Args[:i], t) {
			continue
		}
		if j, ok := varFirst[t.Lex]; ok {
			c := compOf(j)
			out[c].headVars = append(out[c].headVars, t.Lex)
		}
	}
	return out
}
