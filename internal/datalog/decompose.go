package datalog

import "repro/internal/cq"

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
// connected components. Comparisons act as edges too: a comparison whose
// variables span two components merges them.
func splitComponents(q *cq.Query) []component {
	n := len(q.Body)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
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
		var owners []int
		for _, t := range []cq.Term{c.Left, c.Right} {
			if t.IsVar() {
				if j, ok := varFirst[t.Lex]; ok {
					owners = append(owners, j)
				}
			}
		}
		for i := 1; i < len(owners); i++ {
			union(owners[0], owners[i])
		}
	}

	groups := make(map[int]*component)
	var order []int
	for i, a := range q.Body {
		root := find(i)
		g, ok := groups[root]
		if !ok {
			g = &component{}
			groups[root] = g
			order = append(order, root)
		}
		g.atoms = append(g.atoms, a)
	}
	for _, c := range q.Comparisons {
		root := -1
		for _, t := range []cq.Term{c.Left, c.Right} {
			if t.IsVar() {
				if j, ok := varFirst[t.Lex]; ok {
					root = find(j)
					break
				}
			}
		}
		if root >= 0 {
			groups[root].comps = append(groups[root].comps, c)
		} else if len(order) > 0 {
			// Constant-only comparison: attach to the first component (it
			// filters everything or nothing).
			groups[order[0]].comps = append(groups[order[0]].comps, c)
		}
	}
	// Record which head variables each component provides.
	seen := make(map[string]bool)
	for _, t := range q.Head.Args {
		if !t.IsVar() || seen[t.Lex] {
			continue
		}
		seen[t.Lex] = true
		if j, ok := varFirst[t.Lex]; ok {
			groups[find(j)].headVars = append(groups[find(j)].headVars, t.Lex)
		}
	}
	out := make([]component, 0, len(order))
	for _, root := range order {
		out = append(out, *groups[root])
	}
	return out
}
