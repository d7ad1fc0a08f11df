// Package core implements the primary contribution of "Answering Queries
// Using Views" (Levy, Mendelzon, Sagiv, Srivastava — PODS 1995): deciding
// whether a conjunctive query can be rewritten to use a set of views, and
// finding the rewritings.
//
// The rewriter runs the construction of the paper's proof of R2: the
// canonical rewriting is the (minimised) query's head over the head image
// of every homomorphism from a view body into the query body, and the query
// has an equivalent rewriting iff it maps into the canonical rewriting's
// expansion; the atoms such a mapping touches form one. Each is shrunk
// while its expansion stays equivalent, so every rewriting returned is
// verified, locally minimal and within the bound of at most n subgoals for
// a query with n subgoals, and one is found whenever one exists.
package core

import (
	"fmt"
	"slices"

	"repro/internal/cq"
)

// ViewSet is a named collection of view definitions. Views are conjunctive
// queries over base predicates; view definitions may not reference other
// views. Names must be distinct and must not collide with base predicates
// used in any view body.
//
// Add also indexes each view for planning (View, Occurrences), so a ViewSet
// that is no longer being added to can be planned against from any number of
// goroutines without a lock.
type ViewSet struct {
	views  []*View
	byName map[string]*View
	byPred map[predArity][]Occurrence
}

// View is one view definition together with what every rewriting algorithm
// needs to know about it, worked out once by ViewSet.Add. Its variables live
// in the id space of the embedded numbering, apart from any query's, so
// planning never renames a view apart: an argument position is a constant, a
// distinguished variable (HeadPos gives the head position whose argument
// stands for it in an unfolding) or an existential one (which takes a fresh
// name there).
type View struct {
	// Numbered numbers the definition's variables; Numbered.Query is the
	// definition itself.
	cq.Numbered
	// HeadPos[v] is the first head position holding variable v, or -1 when
	// v is existential.
	HeadPos []int32
	// Preds lists the distinct body predicates in first-occurrence order.
	Preds []string
}

// Existential reports whether the variable with the given id does not occur
// in the view's head.
func (v *View) Existential(id int32) bool { return v.HeadPos[id] < 0 }

// Occurrence names one body atom of one view of a ViewSet.
type Occurrence struct {
	// View is the view's position in insertion order; Atom is the index of
	// the body atom within it.
	View, Atom int
}

type predArity struct {
	pred  string
	arity int
}

// NewViewSet validates and indexes a set of view definitions.
func NewViewSet(views ...*cq.Query) (*ViewSet, error) {
	vs := &ViewSet{
		byName: make(map[string]*View, len(views)),
		byPred: make(map[predArity][]Occurrence),
	}
	for _, v := range views {
		if err := vs.Add(v); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// MustNewViewSet is NewViewSet that panics on error; for tests and examples.
func MustNewViewSet(views ...*cq.Query) *ViewSet {
	vs, err := NewViewSet(views...)
	if err != nil {
		panic(err)
	}
	return vs
}

// Add validates, inserts and indexes one view definition. The definition
// must not be modified afterwards.
func (vs *ViewSet) Add(v *cq.Query) error {
	if err := v.Validate(); err != nil {
		return fmt.Errorf("core: invalid view: %w", err)
	}
	name := v.Name()
	if _, dup := vs.byName[name]; dup {
		return fmt.Errorf("core: duplicate view name %s", name)
	}
	for _, a := range v.Body {
		if _, isView := vs.byName[a.Pred]; isView {
			return fmt.Errorf("core: view %s references view %s; views must be defined over base predicates", name, a.Pred)
		}
	}
	for _, existing := range vs.views {
		if slices.Contains(existing.Preds, name) {
			return fmt.Errorf("core: view %s is used as a base predicate by view %s", name, existing.Query.Name())
		}
	}
	iv := newView(v)
	for ai, a := range v.Body {
		key := predArity{a.Pred, len(a.Args)}
		vs.byPred[key] = append(vs.byPred[key], Occurrence{View: len(vs.views), Atom: ai})
	}
	vs.views = append(vs.views, iv)
	vs.byName[name] = iv
	return nil
}

// newView indexes one validated view definition.
func newView(def *cq.Query) *View {
	v := &View{Numbered: cq.Number(def), Preds: def.Predicates()}
	v.HeadPos = make([]int32, v.NumVars())
	for i := range v.HeadPos {
		v.HeadPos[i] = -1
	}
	for pos, id := range v.Head() {
		if id != cq.ConstArg && v.HeadPos[id] < 0 {
			v.HeadPos[id] = int32(pos)
		}
	}
	return v
}

// view returns the view with the given name, or nil.
func (vs *ViewSet) view(name string) *View {
	if vs == nil {
		return nil
	}
	return vs.byName[name]
}

// Views returns the view definitions in insertion order.
func (vs *ViewSet) Views() []*cq.Query {
	out := make([]*cq.Query, len(vs.views))
	for i, v := range vs.views {
		out[i] = v.Query
	}
	return out
}

// Len returns the number of views.
func (vs *ViewSet) Len() int { return len(vs.views) }

// View returns the i-th view in insertion order with its index.
func (vs *ViewSet) View(i int) *View { return vs.views[i] }

// Occurrences returns the view body atoms with the given predicate and
// arity — the only atoms a subgoal over that predicate can be covered by —
// ordered by view insertion order, then atom position. The slice is shared:
// do not modify it.
func (vs *ViewSet) Occurrences(pred string, arity int) []Occurrence {
	return vs.byPred[predArity{pred, arity}]
}
