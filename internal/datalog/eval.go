// Package datalog evaluates conjunctive queries, unions of conjunctive
// queries, and (recursive) datalog programs with Skolem function terms over
// the in-memory storage substrate.
//
// Conjunctive queries are evaluated by backtracking joins with greedy
// bound-first atom ordering and per-column hash indexes. Programs are
// evaluated semi-naively: each iteration joins the per-relation delta from
// the previous round against the full relations, until no new tuples are
// derived. Skolem terms — needed by the inverse-rules rewriting algorithm —
// are constructed as tagged values in the data domain.
package datalog

import (
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Bindings maps variable names to data values during evaluation.
type Bindings map[string]string

// EvalQuery evaluates a conjunctive query over the database and returns the
// distinct head tuples in deterministic (sorted) order. Predicates missing
// from the database are treated as empty relations.
//
// Since the introduction of compiled physical plans this is a thin wrapper:
// it compiles q to a slot-based CompiledPlan (join order from relation
// cardinalities, connected-component decomposition, comparisons pushed to
// their earliest bound depth) and executes it once. Applications answering
// the same query repeatedly should Compile once and reuse the plan — the
// serving engine does exactly that through its LRU.
//
// Like the lazy index builds it replaces, the freeze below mutates a
// relation that is not served, so concurrent callers over one database
// must serve it first (BuildIndexes; the engine serves at construction),
// after which each probed column is built once, at its first probe.
func EvalQuery(db *storage.Database, q *cq.Query) []storage.Tuple {
	p := Compile(q, cost.NewRowCatalog(db, q.Predicates()...))
	p.freeze(db)
	return storage.SortTuples(p.EvalParallelUnsortedWith(db, nil, 1))
}

// freeze builds exactly the column indexes the plan's probes need so the
// executor gets index candidates instead of scan fallbacks. This
// preserves the previous lazy-indexing behaviour (one column per probed
// atom, single-writer requirement) for one-shot callers; the executor
// itself never mutates a relation that is not served.
func (p *CompiledPlan) freeze(db *storage.Database) {
	for i := range p.components {
		steps := p.components[i].steps
		for j := range steps {
			if r := db.Relation(steps[j].pred); r != nil && steps[j].probeCol >= 0 {
				r.BuildColumnIndex(steps[j].probeCol)
			}
		}
	}
}

// EvalQueryNaive is the oracle: a tuple-at-a-time interpreter (map-based
// bindings, per-call greedy join ordering) without connected-component
// decomposition or projection pushdown. Every differential test, the
// benchmark's reply check and the F7 ablation experiment compare against
// it. Results are identical to EvalQuery.
func EvalQueryNaive(db *storage.Database, q *cq.Query) []storage.Tuple {
	var out RowSet
	joinBody(db, q.Body, q.Comparisons, make(Bindings), func(b Bindings) bool {
		out.Add(headTuple(q.Head, b))
		return true
	})
	return storage.SortTuples(out.Rows())
}

// EvalUnion evaluates a union of conjunctive queries, returning distinct
// tuples in sorted order. The members must share the head arity.
func EvalUnion(db *storage.Database, u *cq.Union) []storage.Tuple {
	var out RowSet
	for _, q := range u.Queries {
		for _, t := range EvalQuery(db, q) {
			out.Add(t)
		}
	}
	return storage.SortTuples(out.Rows())
}

func headTuple(head cq.Atom, b Bindings) storage.Tuple {
	t := make(storage.Tuple, len(head.Args))
	for i, a := range head.Args {
		if a.IsVar() {
			t[i] = b[a.Lex]
		} else {
			t[i] = a.Lex
		}
	}
	return t
}

// joinBody enumerates bindings satisfying all atoms and comparisons,
// invoking yield for each; enumeration stops if yield returns false.
func joinBody(db *storage.Database, atoms []cq.Atom, comps []cq.Comparison, b Bindings, yield func(Bindings) bool) bool {
	order := planOrder(db, atoms, b)
	return joinStep(db, atoms, order, 0, comps, b, yield)
}

// planOrder chooses a join order: repeatedly pick the atom with the most
// already-bound argument positions, breaking ties by smaller relation.
func planOrder(db *storage.Database, atoms []cq.Atom, initial Bindings) []int {
	bound := make(map[string]bool, len(initial))
	for v := range initial {
		bound[v] = true
	}
	used := make([]bool, len(atoms))
	order := make([]int, 0, len(atoms))
	for len(order) < len(atoms) {
		best, bestScore, bestSize := -1, -1, 0
		for i, a := range atoms {
			if used[i] {
				continue
			}
			score := 0
			for _, t := range a.Args {
				if t.IsConst() || t.IsVar() && bound[t.Lex] {
					score++
				}
			}
			size := 0
			if r := db.Relation(a.Pred); r != nil {
				size = r.Len()
			}
			if best == -1 || score > bestScore || score == bestScore && size < bestSize {
				best, bestScore, bestSize = i, score, size
			}
		}
		used[best] = true
		order = append(order, best)
		for _, t := range atoms[best].Args {
			if t.IsVar() {
				bound[t.Lex] = true
			}
		}
	}
	return order
}

func joinStep(db *storage.Database, atoms []cq.Atom, order []int, depth int, comps []cq.Comparison, b Bindings, yield func(Bindings) bool) bool {
	if depth == len(order) {
		if !checkComparisons(comps, b) {
			return true
		}
		return yield(b)
	}
	atom := atoms[order[depth]]
	rel := db.Relation(atom.Pred)
	if rel == nil {
		return true // empty relation: no matches, keep enumerating siblings
	}
	candidates := candidateTuples(rel, atom, b)
	for _, tuple := range candidates {
		trail := bindTuple(atom, tuple, b)
		if trail == nil {
			continue
		}
		if !joinStep(db, atoms, order, depth+1, comps, b, yield) {
			return false
		}
		for _, v := range trail {
			delete(b, v)
		}
	}
	return true
}

// candidateTuples narrows the scan using an index on the first bound column.
func candidateTuples(rel *storage.Relation, atom cq.Atom, b Bindings) []storage.Tuple {
	for i, t := range atom.Args {
		switch {
		case t.IsConst():
			return rel.Lookup(i, t.Lex)
		case t.IsVar():
			if v, ok := b[t.Lex]; ok {
				return rel.Lookup(i, v)
			}
		}
	}
	return rel.Tuples()
}

// bindTuple extends b so the atom matches the tuple, returning the list of
// newly bound variables, or nil on mismatch (with b restored).
func bindTuple(atom cq.Atom, tuple storage.Tuple, b Bindings) []string {
	trail := make([]string, 0, len(atom.Args))
	for i, t := range atom.Args {
		if t.IsConst() {
			if t.Lex != tuple[i] {
				for _, v := range trail {
					delete(b, v)
				}
				return nil
			}
			continue
		}
		if v, ok := b[t.Lex]; ok {
			if v != tuple[i] {
				for _, v := range trail {
					delete(b, v)
				}
				return nil
			}
			continue
		}
		b[t.Lex] = tuple[i]
		trail = append(trail, t.Lex)
	}
	return trail
}

func checkComparisons(comps []cq.Comparison, b Bindings) bool {
	for _, c := range comps {
		l, ok1 := valueOf(c.Left, b)
		r, ok2 := valueOf(c.Right, b)
		if !ok1 || !ok2 {
			return false // unbound comparison variable: unsafe query
		}
		if !c.Op.EvalConst(cq.Const(l), cq.Const(r)) {
			return false
		}
	}
	return true
}

func valueOf(t cq.Term, b Bindings) (string, bool) {
	if t.IsConst() {
		return t.Lex, true
	}
	v, ok := b[t.Lex]
	return v, ok
}

// MaterializeViews evaluates every view over base, one EvalQuery each, and
// returns a database holding only the view extents (the data-integration
// setting: the query processor sees view relations, not base relations).
// Like EvalQuery it indexes the base columns it probes. It is the one-shot
// library helper and the tests' independent reference; served state is built
// by ivm.New instead.
func MaterializeViews(base *storage.Database, views []*cq.Query) (*storage.Database, error) {
	out := storage.NewDatabase()
	for _, v := range views {
		rel, err := out.Ensure(v.Name(), v.Arity())
		if err != nil {
			return nil, err
		}
		for _, t := range EvalQuery(base, v) {
			rel.Insert(t)
		}
	}
	return out, nil
}
