package cq

import (
	"fmt"
	"strings"
)

// Query is a conjunctive query with optional comparison predicates:
//
//	Head :- Body[0], ..., Body[k-1], Comparisons...
//
// The head's predicate names the query; its arguments are the distinguished
// terms. Body atoms are relational subgoals over base (or view) predicates.
type Query struct {
	Head        Atom
	Body        []Atom
	Comparisons []Comparison
}

// NewQuery builds a query from a head and body. Comparisons may be attached
// afterwards or via AddComparison.
func NewQuery(head Atom, body ...Atom) *Query {
	return &Query{Head: head, Body: body}
}

// AddComparison appends a comparison predicate and returns the query for
// chaining.
func (q *Query) AddComparison(c Comparison) *Query {
	q.Comparisons = append(q.Comparisons, c)
	return q
}

// Name returns the head predicate name.
func (q *Query) Name() string { return q.Head.Pred }

// Arity returns the head arity.
func (q *Query) Arity() int { return len(q.Head.Args) }

// Clone returns a deep copy of the query. The arguments of the head and of
// every body atom are windows onto one []Term, each capped at its own
// length, so appending to one atom's Args reallocates it and never writes
// into a neighbour's: a clone costs three allocations whatever its length
// (four with comparisons).
func (q *Query) Clone() *Query {
	n := len(q.Head.Args)
	for _, a := range q.Body {
		n += len(a.Args)
	}
	terms := make([]Term, 0, n)
	window := func(args []Term) []Term {
		start := len(terms)
		terms = append(terms, args...)
		return terms[start:len(terms):len(terms)]
	}
	body := make([]Atom, len(q.Body))
	for i, a := range q.Body {
		body[i] = Atom{Pred: a.Pred, Args: window(a.Args)}
	}
	comps := make([]Comparison, len(q.Comparisons))
	copy(comps, q.Comparisons)
	return &Query{Head: Atom{Pred: q.Head.Pred, Args: window(q.Head.Args)}, Body: body, Comparisons: comps}
}

// Vars returns the set of variables occurring anywhere in the query, in
// first-occurrence order (head first, then body, then comparisons).
func (q *Query) Vars() []Term {
	seen := make(map[string]bool)
	var out []Term
	add := func(t Term) {
		if t.IsVar() && !seen[t.Lex] {
			seen[t.Lex] = true
			out = append(out, t)
		}
	}
	for _, t := range q.Head.Args {
		add(t)
	}
	for _, a := range q.Body {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range q.Comparisons {
		add(c.Left)
		add(c.Right)
	}
	return out
}

// Constants returns the set of constants occurring anywhere in the query.
func (q *Query) Constants() []Term {
	seen := make(map[string]bool)
	var out []Term
	add := func(t Term) {
		if t.IsConst() && !seen[t.Lex] {
			seen[t.Lex] = true
			out = append(out, t)
		}
	}
	for _, t := range q.Head.Args {
		add(t)
	}
	for _, a := range q.Body {
		for _, t := range a.Args {
			add(t)
		}
	}
	for _, c := range q.Comparisons {
		add(c.Left)
		add(c.Right)
	}
	return out
}

// Predicates returns the distinct body predicate names in first-occurrence
// order.
func (q *Query) Predicates() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range q.Body {
		if !seen[a.Pred] {
			seen[a.Pred] = true
			out = append(out, a.Pred)
		}
	}
	return out
}

// Validate checks the query for well-formedness:
//   - the body is non-empty,
//   - the query is safe (every head variable occurs in a relational subgoal),
//   - every comparison variable occurs in a relational subgoal,
//   - predicate arities are used consistently within the query.
func (q *Query) Validate() error {
	switch kind, name, a, b := q.flaw(); kind {
	case emptyBody:
		return fmt.Errorf("cq: query %s has an empty body", q.Head.Pred)
	case mixedArity:
		return fmt.Errorf("cq: predicate %s used with arities %d and %d", name, a, b)
	case unsafeHead:
		return fmt.Errorf("cq: unsafe query %s: head variable %s does not occur in the body", q.Head.Pred, name)
	case unsafeComparison:
		return fmt.Errorf("cq: unsafe query %s: comparison variable %s does not occur in a relational subgoal", q.Head.Pred, name)
	}
	return nil
}

// Valid reports whether Validate would return nil. It allocates nothing,
// which matters to the rewriting searches: they test every candidate.
func (q *Query) Valid() bool {
	kind, _, _, _ := q.flaw()
	return kind == wellFormed
}

const (
	wellFormed = iota
	emptyBody
	mixedArity
	unsafeHead
	unsafeComparison
)

// flaw finds the first thing Validate objects to: its kind, the predicate or
// variable concerned and, for mixedArity, the two arities. It scans instead
// of building sets, since bodies are short.
func (q *Query) flaw() (kind int, name string, a, b int) {
	if len(q.Body) == 0 {
		return emptyBody, "", 0, 0
	}
	for i, at := range q.Body {
		for j := i - 1; j >= 0; j-- {
			if prev := q.Body[j]; prev.Pred == at.Pred {
				if len(prev.Args) != len(at.Args) {
					return mixedArity, at.Pred, len(prev.Args), len(at.Args)
				}
				break // earlier uses were checked against prev
			}
		}
	}
	for _, t := range q.Head.Args {
		if t.IsVar() && !q.InBody(t) {
			return unsafeHead, t.Lex, 0, 0
		}
	}
	for _, c := range q.Comparisons {
		for _, t := range [2]Term{c.Left, c.Right} {
			if t.IsVar() && !q.InBody(t) {
				return unsafeComparison, t.Lex, 0, 0
			}
		}
	}
	return wellFormed, "", 0, 0
}

// InBody reports whether t is an argument of some body atom.
func (q *Query) InBody(t Term) bool {
	for _, a := range q.Body {
		for _, u := range a.Args {
			if u == t {
				return true
			}
		}
	}
	return false
}

// String renders the query in surface syntax, e.g.
// "q(X,Y) :- r(X,Z), s(Z,Y), Z < 5.".
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString(q.Head.String())
	sb.WriteString(" :- ")
	for i, a := range q.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	for i, c := range q.Comparisons {
		// No separator before the first conjunct: a (non-validated) query
		// may have comparisons but an empty body, and "q() :- , X<1." would
		// not re-parse.
		if i > 0 || len(q.Body) > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.String())
	}
	sb.WriteByte('.')
	return sb.String()
}

// Union is a union of conjunctive queries (UCQ). All members must share the
// head predicate name and arity. A nil or empty union denotes the empty
// query (no answers).
type Union struct {
	Queries []*Query
}

// NewUnion builds a union from member queries.
func NewUnion(qs ...*Query) *Union { return &Union{Queries: qs} }

// Add appends a member query.
func (u *Union) Add(q *Query) { u.Queries = append(u.Queries, q) }

// Len returns the number of member queries.
func (u *Union) Len() int {
	if u == nil {
		return 0
	}
	return len(u.Queries)
}

// String renders the union one member per line.
func (u *Union) String() string {
	if u.Len() == 0 {
		return "<empty union>"
	}
	parts := make([]string, len(u.Queries))
	for i, q := range u.Queries {
		parts[i] = q.String()
	}
	return strings.Join(parts, "\n")
}
