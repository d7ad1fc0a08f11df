package cq

// ConstArg marks an argument position that holds a constant in a Numbered
// query; the constant itself is read from the query.
const ConstArg int32 = -1

// Numbered is a read-only index over a query in which every variable has a
// dense id, assigned in first-occurrence order over head, body and
// comparisons — the order of Vars. It is the representation the planning
// layer shares: the containment search indexes its substitution by these
// ids, a ViewSet keeps one per view, and MiniCon numbers the query the same
// way, so none of them needs a map from variable names on the hot path.
//
// The query must not be modified while a Numbered of it is in use. A
// Numbered is safe for concurrent readers.
type Numbered struct {
	Query *Query
	// Names maps a variable id to the variable's name.
	Names []string
	// args holds one entry per argument position — head, then the body
	// atoms in order, then left and right of each comparison: a variable id
	// or ConstArg.
	args []int32
	// off[i] is where body atom i starts in args; off[len(Body)] is where
	// the comparisons start.
	off []int32
}

// Number numbers the variables of q.
func Number(q *Query) Numbered {
	var n Numbered
	n.Renumber(q)
	return n
}

// Renumber makes n the numbering of q, reusing the arrays n holds when they
// are large enough: a Numbered that a single owner renumbers for one query
// after another allocates only while its arrays grow. Only the owner may
// renumber; a Numbered shared by readers never is.
func (n *Numbered) Renumber(q *Query) {
	total := len(q.Head.Args) + 2*len(q.Comparisons)
	for _, a := range q.Body {
		total += len(a.Args)
	}
	if n.Names == nil {
		n.Names = make([]string, 0, 8)
	}
	n.Query, n.Names, n.args = q, n.Names[:0], n.args[:0]
	if cap(n.args) < total {
		n.args = make([]int32, 0, total)
	}
	if cap(n.off) < len(q.Body)+1 {
		n.off = make([]int32, len(q.Body)+1)
	}
	n.off = n.off[:len(q.Body)+1]
	for _, t := range q.Head.Args {
		n.add(t)
	}
	for i, a := range q.Body {
		n.off[i] = int32(len(n.args))
		for _, t := range a.Args {
			n.add(t)
		}
	}
	n.off[len(q.Body)] = int32(len(n.args))
	for _, c := range q.Comparisons {
		n.add(c.Left)
		n.add(c.Right)
	}
}

func (n *Numbered) add(t Term) {
	id := ConstArg
	if t.IsVar() {
		id = n.ID(t.Lex)
		if id < 0 {
			id = int32(len(n.Names))
			n.Names = append(n.Names, t.Lex)
		}
	}
	n.args = append(n.args, id)
}

// ID returns the id of the variable with the given name, or -1. Queries have
// few variables, so this is a scan, not a map lookup.
func (n *Numbered) ID(name string) int32 {
	for i, s := range n.Names {
		if s == name {
			return int32(i)
		}
	}
	return -1
}

// NumVars returns the number of distinct variables.
func (n *Numbered) NumVars() int { return len(n.Names) }

// Head returns the head's argument ids.
func (n *Numbered) Head() []int32 { return n.args[:len(n.Query.Head.Args)] }

// Atom returns the argument ids of body atom i.
func (n *Numbered) Atom(i int) []int32 {
	return n.args[n.off[i] : n.off[i]+int32(len(n.Query.Body[i].Args))]
}

// Comparison returns the ids of the two sides of comparison i.
func (n *Numbered) Comparison(i int) (left, right int32) {
	at := n.off[len(n.Query.Body)] + 2*int32(i)
	return n.args[at], n.args[at+1]
}
