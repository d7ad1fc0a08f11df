package core

import (
	"fmt"
	"slices"

	"repro/internal/cq"
)

// Expand unfolds every view atom of q into the view's definition: the view
// head is unified with the atom's arguments, the view's existential
// variables are renamed apart, and the view's body and comparisons are
// spliced into the result. Atoms over predicates not in vs are left in
// place, so Expand works for partial rewritings too. The result shares the
// head and the atoms it did not touch with q.
//
// Expand returns an error if a view is used with the wrong arity or if head
// unification fails on conflicting constants (such a rewriting is
// unsatisfiable).
func Expand(q *cq.Query, vs *ViewSet) (*cq.Query, error) {
	var x expander
	out, err := x.expand(q, vs)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// expander holds the arrays an unfolding is written into: the body, the
// terms every unfolded atom's arguments are windows onto, the comparisons,
// and the names of one view's existentials. A zero expander sizes them
// exactly; canonical reuses one, so its unfoldings allocate only while the
// arrays grow.
type expander struct {
	body  []cq.Atom
	terms []cq.Term
	comps []cq.Comparison
	names []cq.Term
}

// expand is Expand into x's arrays: the result is valid until the next
// call.
func (x *expander) expand(q *cq.Query, vs *ViewSet) (cq.Query, error) {
	nb, nt, nc := 0, 0, len(q.Comparisons)
	for _, a := range q.Body {
		v := vs.view(a.Pred)
		if v == nil {
			nb++
			continue
		}
		nb, nc = nb+len(v.Query.Body), nc+len(v.Query.Comparisons)
		for _, va := range v.Query.Body {
			nt += len(va.Args)
		}
	}
	body, terms := slices.Grow(x.body[:0], nb), slices.Grow(x.terms[:0], nt)
	comps := append(slices.Grow(x.comps[:0], nc), q.Comparisons...)
	names := x.names // names[id]: this unfolding's name for existential id
	fresh := cq.NewFreshener("E")
	fresh.Reserve(q)
	// theta binds terms of q itself. A view's distinguished variable is
	// written as the atom's argument at its first head position right away,
	// so only a repeated head variable or a head constant ever binds
	// anything, and for most view sets theta stays nil.
	var theta cq.Subst
	unify := func(a, b cq.Term) bool {
		if a == b {
			return true
		}
		if theta == nil {
			theta = cq.NewSubst()
		}
		return theta.UnifyTerms(a, b)
	}

	for _, a := range q.Body {
		v := vs.view(a.Pred)
		if v == nil {
			body = append(body, a)
			continue
		}
		if len(v.Query.Head.Args) != len(a.Args) {
			return cq.Query{}, fmt.Errorf("core: view %s has arity %d but is used with %d arguments", v.Query.Name(), v.Query.Arity(), len(a.Args))
		}
		for pos, id := range v.Head() {
			ok := true
			switch {
			case id == cq.ConstArg:
				ok = unify(v.Query.Head.Args[pos], a.Args[pos])
			case v.HeadPos[id] != int32(pos): // a repeated head variable
				ok = unify(a.Args[v.HeadPos[id]], a.Args[pos])
			}
			if !ok {
				return cq.Query{}, fmt.Errorf("core: cannot unify %s with head of view %s (conflicting constants)", a, v.Query.Name())
			}
		}
		// Every variable of the view uses up one fresh number, as renaming
		// the whole view apart would, but only existentials take a name.
		names = slices.Grow(names[:0], v.NumVars())[:v.NumVars()]
		for id := range names {
			if v.Existential(int32(id)) {
				names[id] = fresh.Fresh()
			} else {
				fresh.Skip()
			}
		}
		image := func(id int32, t cq.Term) cq.Term {
			switch {
			case id == cq.ConstArg:
				return t
			case v.Existential(id):
				return names[id]
			default:
				return a.Args[v.HeadPos[id]]
			}
		}
		for i, va := range v.Query.Body {
			start := len(terms)
			for j, id := range v.Atom(i) {
				terms = append(terms, image(id, va.Args[j]))
			}
			body = append(body, cq.Atom{Pred: va.Pred, Args: terms[start:len(terms):len(terms)]})
		}
		for i, c := range v.Query.Comparisons {
			l, r := v.Comparison(i)
			comps = append(comps, cq.Comparison{Left: image(l, c.Left), Op: c.Op, Right: image(r, c.Right)})
		}
	}
	x.body, x.terms, x.comps, x.names = body, terms, comps, names
	out := cq.Query{Head: q.Head, Body: body, Comparisons: comps}
	if len(theta) > 0 {
		out = *theta.Resolved().ApplyQuery(&out)
	}
	return out, nil
}

// ExpandUnion unfolds every member of a union.
func ExpandUnion(u *cq.Union, vs *ViewSet) (*cq.Union, error) {
	out := &cq.Union{}
	for _, m := range u.Queries {
		e, err := Expand(m, vs)
		if err != nil {
			return nil, err
		}
		out.Add(e)
	}
	return out, nil
}
