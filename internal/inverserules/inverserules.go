// Package inverserules implements the inverse-rules algorithm (Duschka &
// Genesereth) for answering queries using views: each view definition is
// inverted into datalog rules that reconstruct the base relations from view
// extents, introducing Skolem function terms for the view's existential
// variables. The query is then evaluated over the reconstructed relations
// and answers containing Skolem values are discarded.
//
// The algorithm produces the maximally-contained answer set for conjunctive
// queries and is notable for doing no rewriting-time search at all — its
// cost shifts entirely to evaluation time, which experiment F4 measures
// against evaluating the MiniCon rewriting. That evaluation now runs on the
// compiled semi-naive executor (datalog.CompileProgram): Answer compiles the
// program on the fly, and serving callers should Compile once and evaluate
// the returned CompiledProgram per request, as the engine's plan cache does.
package inverserules

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// Invert builds the inverse rules of a single view: one rule per body atom,
// reading from the view's extent relation. Existential view variables
// become Skolem terms f{view,i}(distinguished vars).
func Invert(view *cq.Query) ([]datalog.Rule, error) {
	if err := view.Validate(); err != nil {
		return nil, fmt.Errorf("inverserules: %w", err)
	}
	if len(view.Comparisons) > 0 {
		return nil, fmt.Errorf("inverserules: view %s has comparisons; inverse rules are defined for pure conjunctive views", view.Name())
	}
	distinguished := make(map[string]bool)
	for _, t := range view.Head.Args {
		if t.IsVar() {
			distinguished[t.Lex] = true
		}
	}
	// Head-argument variable list for Skolem arguments: distinguished vars
	// in head order (deduplicated).
	var headArgVars []string
	seenHV := make(map[string]bool)
	for _, t := range view.Head.Args {
		if t.IsVar() && !seenHV[t.Lex] {
			seenHV[t.Lex] = true
			headArgVars = append(headArgVars, t.Lex)
		}
	}

	skolems := make(map[string]*datalog.Skolem)
	skolemFor := func(v string) *datalog.Skolem {
		if s, ok := skolems[v]; ok {
			return s
		}
		s := &datalog.Skolem{
			Name: fmt.Sprintf("f_%s_%s", view.Name(), v),
			Args: headArgVars,
		}
		skolems[v] = s
		return s
	}

	body := []cq.Atom{{Pred: view.Name(), Args: view.Head.Args}}
	rules := make([]datalog.Rule, 0, len(view.Body))
	for _, a := range view.Body {
		head := make([]datalog.HeadTerm, len(a.Args))
		for i, t := range a.Args {
			switch {
			case t.IsConst():
				head[i] = datalog.HeadTerm{Term: t}
			case distinguished[t.Lex]:
				head[i] = datalog.HeadTerm{Term: t}
			default:
				head[i] = datalog.HeadTerm{Skolem: skolemFor(t.Lex)}
			}
		}
		rules = append(rules, datalog.Rule{HeadPred: a.Pred, Head: head, Body: body})
	}
	return rules, nil
}

// Program builds the full inverse-rules program for a query and a view set:
// the inverse rules of every view plus the query itself as a rule deriving
// the answer predicate.
//
// It refuses a query comparison on a variable that only Skolem values may
// bind: one whose every body occurrence sits at a position where some
// inverse rule has a Skolem head term. A Skolem value stands for an unknown
// constant, so no comparison on it is certain, yet the evaluator would
// compare its name; a variable with one occurrence at a Skolem-free
// position is joined to view values only.
func Program(q *cq.Query, views []*cq.Query) (*datalog.Program, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("inverserules: %w", err)
	}
	p := &datalog.Program{}
	for _, v := range views {
		rules, err := Invert(v)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, rules...)
	}
	if err := checkComparisons(q, p.Rules); err != nil {
		return nil, err
	}
	p.Rules = append(p.Rules, datalog.RuleFromQuery(q))
	return p, nil
}

// checkComparisons refuses a comparison of q on a variable that the inverse
// rules can bind only where they may put a Skolem value (see Program).
func checkComparisons(q *cq.Query, rules []datalog.Rule) error {
	if len(q.Comparisons) == 0 {
		return nil
	}
	type position struct {
		pred string
		i    int
	}
	skolem := make(map[position]bool) // positions some rule Skolemises
	for _, r := range rules {
		for i, h := range r.Head {
			if h.Skolem != nil {
				skolem[position{r.HeadPred, i}] = true
			}
		}
	}
	onlySkolem := func(v string) bool {
		for _, a := range q.Body {
			for i, t := range a.Args {
				if t.IsVar() && t.Lex == v && !skolem[position{a.Pred, i}] {
					return false
				}
			}
		}
		return true
	}
	for _, c := range q.Comparisons {
		for _, t := range []cq.Term{c.Left, c.Right} {
			if t.IsVar() && onlySkolem(t.Lex) {
				return fmt.Errorf("inverserules: comparison %s of %s is on %s, which the inverse rules bind only where a Skolem value may stand", c, q.Name(), t.Lex)
			}
		}
	}
	return nil
}

// Compile builds the inverse-rules program for q over views and lowers it to
// its compiled semi-naive form under the catalog's statistics (nil falls
// back to bound-columns-first join ordering). The result is immutable and
// may be evaluated concurrently; the serving engine caches it in its plan
// LRU beside the rewriting plans.
func Compile(q *cq.Query, views []*cq.Query, cat *cost.Catalog) (*datalog.CompiledProgram, error) {
	p, err := Program(q, views)
	if err != nil {
		return nil, err
	}
	return datalog.CompileProgram(p, cat)
}

// Answer evaluates the query over the view extents in viewDB using inverse
// rules and returns the certain answers (tuples free of Skolem values), in
// sorted order. The fixpoint runs on the compiled semi-naive executor via
// Program.Eval; repeated callers should Compile once instead.
func Answer(q *cq.Query, views []*cq.Query, viewDB *storage.Database) ([]storage.Tuple, error) {
	p, err := Program(q, views)
	if err != nil {
		return nil, err
	}
	out, err := p.Eval(viewDB)
	if err != nil {
		return nil, err
	}
	rel := out.Relation(q.Name())
	if rel == nil {
		return nil, nil
	}
	return datalog.CertainAnswers(rel.Tuples()), nil
}
