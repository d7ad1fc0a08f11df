package cq

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Subst maps variable names to terms. Applying a substitution replaces every
// occurrence of a bound variable by its image; unbound variables are left in
// place. Substitutions are applied in one pass: an image is not looked up
// again, so a chain X->Y, Y->a maps X to Y.
type Subst map[string]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Bind adds a binding and reports whether it is consistent with an existing
// one (binding the same variable to a different term fails).
func (s Subst) Bind(v string, t Term) bool {
	if old, ok := s[v]; ok {
		return old == t
	}
	s[v] = t
	return true
}

// ApplyTerm applies the substitution to a single term.
func (s Subst) ApplyTerm(t Term) Term {
	if t.IsVar() {
		if img, ok := s[t.Lex]; ok {
			return img
		}
	}
	return t
}

// ApplyAtom applies the substitution to every argument of an atom.
func (s Subst) ApplyAtom(a Atom) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.ApplyTerm(t)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// ApplyComparison applies the substitution to both sides of a comparison.
func (s Subst) ApplyComparison(c Comparison) Comparison {
	return Comparison{Left: s.ApplyTerm(c.Left), Op: c.Op, Right: s.ApplyTerm(c.Right)}
}

// ApplyQuery applies the substitution to the head, body and comparisons of a
// query, returning a new query.
func (s Subst) ApplyQuery(q *Query) *Query {
	body := make([]Atom, len(q.Body))
	for i, a := range q.Body {
		body[i] = s.ApplyAtom(a)
	}
	comps := make([]Comparison, len(q.Comparisons))
	for i, c := range q.Comparisons {
		comps[i] = s.ApplyComparison(c)
	}
	return &Query{Head: s.ApplyAtom(q.Head), Body: body, Comparisons: comps}
}

// String renders the substitution deterministically, e.g. "{X->a, Y->Z}".
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "->" + s[k].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Walk follows chains of variable bindings to their end, guarding against
// cycles (members of a cyclic chain are all equal; the walk stops at the
// first repeated variable).
func (s Subst) Walk(t Term) Term {
	var seen map[string]bool
	for t.IsVar() {
		next, ok := s[t.Lex]
		if !ok {
			return t
		}
		if seen == nil {
			seen = make(map[string]bool)
		}
		if seen[t.Lex] {
			return t
		}
		seen[t.Lex] = true
		t = next
	}
	return t
}

// Resolved returns a substitution in which every binding is fully chased:
// Resolved()[x] is the end of x's binding chain. Applying the result once
// is equivalent to applying s until fixpoint.
func (s Subst) Resolved() Subst {
	out := make(Subst, len(s))
	for v := range s {
		out[v] = s.Walk(Var(v))
	}
	return out
}

// UnifyTerms attempts to extend s so that a and b become equal, treating
// variables on both sides as unifiable. It reports whether unification
// succeeded; on failure s may be partially extended (clone first if needed).
func (s Subst) UnifyTerms(a, b Term) bool {
	a, b = s.Walk(a), s.Walk(b)
	switch {
	case a == b:
		return true
	case a.IsVar():
		return s.Bind(a.Lex, b)
	case b.IsVar():
		return s.Bind(b.Lex, a)
	default:
		return false // distinct constants
	}
}

// MatchAtom attempts to extend s so that s(pattern) == target, binding
// variables of the pattern only (one-way matching, as used by containment
// mappings). target may contain variables; they are treated as constants of
// the target query.
func (s Subst) MatchAtom(pattern, target Atom) bool {
	if pattern.Pred != target.Pred || len(pattern.Args) != len(target.Args) {
		return false
	}
	for i := range pattern.Args {
		pt, tt := pattern.Args[i], target.Args[i]
		if pt.IsVar() {
			if !s.Bind(pt.Lex, tt) {
				return false
			}
			continue
		}
		if pt != tt {
			return false
		}
	}
	return true
}

// Freshener generates fresh variable names that cannot collide with names it
// has seen. Use one Freshener per renaming session.
type Freshener struct {
	prefix string
	n      int
	// taken holds the numbers k for which prefix+k is reserved. Generated
	// names need no entry: the counter never goes back.
	taken []int
}

// NewFreshener returns a Freshener producing names prefix0, prefix1, ...
// skipping any name registered via Reserve.
func NewFreshener(prefix string) *Freshener {
	return &Freshener{prefix: prefix}
}

// Reserve marks every variable of q as taken.
func (f *Freshener) Reserve(q *Query) {
	reserve := func(t Term) {
		if t.IsVar() {
			f.ReserveName(t.Lex)
		}
	}
	for _, t := range q.Head.Args {
		reserve(t)
	}
	for _, a := range q.Body {
		for _, t := range a.Args {
			reserve(t)
		}
	}
	for _, c := range q.Comparisons {
		reserve(c.Left)
		reserve(c.Right)
	}
}

// ReserveName marks one name as taken. Only a name this Freshener could
// generate — the prefix followed by a decimal number as strconv writes it —
// needs remembering.
func (f *Freshener) ReserveName(name string) {
	digits, ok := strings.CutPrefix(name, f.prefix)
	if !ok {
		return
	}
	if k, err := strconv.Atoi(digits); err == nil && k >= 0 && strconv.Itoa(k) == digits {
		f.taken = append(f.taken, k)
	}
}

// Skip uses up the number Fresh would have used next without building the
// name. A caller that renames a whole query apart but needs only some of the
// new names keeps the numbering of the rest this way.
func (f *Freshener) Skip() {
	for slices.Contains(f.taken, f.n) {
		f.n++
	}
	f.n++
}

// Fresh returns a new variable distinct from all reserved and previously
// generated names.
func (f *Freshener) Fresh() Term {
	f.Skip()
	return Var(f.prefix + strconv.Itoa(f.n-1))
}
