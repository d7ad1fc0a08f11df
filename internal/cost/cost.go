// Package cost provides a simple cardinality-based cost model for choosing
// among rewritings — the query-optimisation use of the paper's results.
// Costs estimate the work of left-deep index-nested-loop evaluation, which
// is how internal/datalog executes conjunctive queries.
//
// The model is deliberately simple (independence and uniformity
// assumptions, per-column distinct counts) but is honest about its output:
// it ranks plans; it does not predict wall-clock time.
package cost

import (
	"math"

	"repro/internal/cq"
	"repro/internal/storage"
)

// Catalog holds per-relation statistics used by the estimator.
type Catalog struct {
	rows     map[string]float64
	distinct map[string][]float64 // per column
}

// NewCatalog builds statistics from a database: relation cardinalities and
// per-column distinct-value counts. The counts are read off the relations'
// column indexes (Relation.Distinct), so over a database whose indexes are
// built (BuildIndexes) it costs O(relations × columns) and scans nothing;
// a column without an index is indexed once, on the side, to be counted.
func NewCatalog(db *storage.Database) *Catalog {
	c := &Catalog{
		rows:     make(map[string]float64),
		distinct: make(map[string][]float64),
	}
	for _, pred := range db.Predicates() {
		rel := db.Relation(pred)
		c.rows[pred] = float64(rel.Len())
		d := make([]float64, rel.Arity())
		for col := range d {
			d[col] = math.Max(1, float64(rel.Distinct(col)))
		}
		c.distinct[pred] = d
	}
	return c
}

// NewRowCatalog builds a rows-only catalog: relation cardinalities without
// per-column distinct counts. With preds given it covers only those
// predicates (O(|preds|) — the per-query case); with none it covers the
// whole database. It is cheap enough to derive per evaluation, which is
// how EvalQuery orders joins; distinct counts default to 1 and ordering
// degrades to bound-columns-first with smaller-relation tie-breaks.
func NewRowCatalog(db *storage.Database, preds ...string) *Catalog {
	c := &Catalog{
		rows:     make(map[string]float64),
		distinct: make(map[string][]float64),
	}
	if len(preds) == 0 {
		preds = db.Predicates()
	}
	for _, pred := range preds {
		if rel := db.Relation(pred); rel != nil {
			c.rows[pred] = float64(rel.Len())
		}
	}
	return c
}

// SetRelation registers statistics manually (for what-if analysis).
func (c *Catalog) SetRelation(pred string, rows float64, distinct []float64) {
	c.rows[pred] = rows
	c.distinct[pred] = distinct
}

// Clone returns an independent copy of the catalog, so what-if overrides
// (SetRelation) never leak into a shared instance.
func (c *Catalog) Clone() *Catalog {
	n := &Catalog{
		rows:     make(map[string]float64, len(c.rows)),
		distinct: make(map[string][]float64, len(c.distinct)),
	}
	for pred, r := range c.rows {
		n.rows[pred] = r
	}
	for pred, d := range c.distinct {
		n.distinct[pred] = append([]float64(nil), d...)
	}
	return n
}

// Rows returns the cardinality of a relation (1 if unknown — a missing
// relation joins like a singleton so unknown predicates do not dominate).
func (c *Catalog) Rows(pred string) float64 {
	if r, ok := c.rows[pred]; ok {
		return r
	}
	return 1
}

// Distinct returns the number of distinct values in a column (1 if
// unknown). The physical-plan compiler uses it to pick the most selective
// index probe column and to refine join-order tie-breaks.
func (c *Catalog) Distinct(pred string, col int) float64 {
	return c.distinctAt(pred, col)
}

func (c *Catalog) distinctAt(pred string, col int) float64 {
	if d, ok := c.distinct[pred]; ok && col < len(d) {
		return d[col]
	}
	return 1
}

// Estimate is the estimated evaluation of one query: the number of
// intermediate tuples produced by a left-deep plan in the greedy join order
// of the datalog naive interpreter's planOrder, which ranks atoms by bound
// arguments and then by rows alone (see EstimateQueryWith).
type Estimate struct {
	// Cost is the total intermediate-result size (the quantity a nested-
	// loop evaluator is proportional to).
	Cost float64
	// Cardinality is the estimated output size before projection.
	Cardinality float64
	// Order is the join order used, as body indexes. A compiled plan may
	// execute its steps in another order (see EstimateQueryWith).
	Order []int
}

// EstimateQuery costs a conjunctive query against the catalog.
func EstimateQuery(c *Catalog, q *cq.Query) Estimate {
	return EstimateQueryWith(c, q, nil)
}

// EstimateQueryWith is EstimateQuery with the listed variables treated as
// bound before the first join step — the cost of a parameterized plan whose
// parameter slots are filled at execution time. Bound columns filter by
// their distinct counts exactly like constants, so point-lookup templates
// cost like point lookups rather than full scans.
func EstimateQueryWith(c *Catalog, q *cq.Query, boundVars []string) Estimate {
	return estimate(c, q, boundVars, true)
}

// estimate is EstimateQueryWith, recording the join order in Order only
// when order is set.
func estimate(c *Catalog, q *cq.Query, boundVars []string, order bool) Estimate {
	type state struct {
		bound map[string]bool
	}
	st := state{bound: make(map[string]bool, len(boundVars))}
	for _, v := range boundVars {
		st.bound[v] = true
	}
	remaining := make([]int, 0, len(q.Body))
	for i := range q.Body {
		remaining = append(remaining, i)
	}
	est := Estimate{Cardinality: 1}
	if order {
		est.Order = make([]int, 0, len(q.Body))
	}
	for len(remaining) > 0 {
		// Order like the naive interpreter's planOrder (datalog's
		// EvalQueryNaive): most bound arguments first, then the smaller
		// relation, by rows alone. A compiled plan (datalog's chooseNext)
		// also divides rows by the distinct counts of the bound columns, so
		// it can execute its steps in another order than Order: once X is
		// bound, r(X,Y) (1 000 rows, 1 000 distinct X) estimates 1 row and
		// s(X,Z) (100 rows, one distinct X) 100, so the compiled plan joins
		// r first where Order puts s first.
		best, bestScore, bestRows := -1, -1.0, 0.0
		for _, idx := range remaining {
			a := q.Body[idx]
			score := 0.0
			for _, t := range a.Args {
				if t.IsConst() || t.IsVar() && st.bound[t.Lex] {
					score++
				}
			}
			rows := c.Rows(a.Pred)
			if best == -1 || score > bestScore || score == bestScore && rows < bestRows {
				best, bestScore, bestRows = idx, score, rows
			}
		}
		a := q.Body[best]
		// Selectivity: each bound column filters by its distinct count;
		// constants likewise.
		size := c.Rows(a.Pred)
		for col, t := range a.Args {
			if t.IsConst() || t.IsVar() && st.bound[t.Lex] {
				size /= c.distinctAt(a.Pred, col)
			}
		}
		size = math.Max(size, 1.0/c.RowsSafe(a.Pred))
		est.Cardinality *= size
		est.Cost += est.Cardinality
		if order {
			est.Order = append(est.Order, best)
		}
		for _, t := range a.Args {
			if t.IsVar() {
				st.bound[t.Lex] = true
			}
		}
		remaining = removeInt(remaining, best)
	}
	// Comparisons filter the final result; assume 1/3 selectivity each
	// (the classical System R default).
	for range q.Comparisons {
		est.Cardinality /= 3
	}
	return est
}

// RowsSafe is Rows guarded against zero.
func (c *Catalog) RowsSafe(pred string) float64 {
	return math.Max(1, c.Rows(pred))
}

// EstimateUnion costs a union as the sum of member costs.
func EstimateUnion(c *Catalog, u *cq.Union) Estimate {
	return EstimateUnionWith(c, u, nil)
}

// EstimateUnionWith is EstimateUnion with pre-bound variables (see
// EstimateQueryWith).
func EstimateUnionWith(c *Catalog, u *cq.Union, boundVars []string) Estimate {
	var total Estimate
	for _, m := range u.Queries {
		e := estimate(c, m, boundVars, false)
		total.Cost += e.Cost
		total.Cardinality += e.Cardinality
	}
	return total
}

// Choose returns the index of the cheapest query among candidates, along
// with all estimates. It is the decision procedure an optimiser would run
// over the rewritings produced by the core engine.
func Choose(c *Catalog, candidates []*cq.Query) (best int, estimates []Estimate) {
	return ChooseWith(c, candidates, nil)
}

// ChooseWith is Choose with pre-bound variables (see EstimateQueryWith):
// the decision procedure for parameterized plan candidates, whose parameter
// slots are bound on every execution.
func ChooseWith(c *Catalog, candidates []*cq.Query, boundVars []string) (best int, estimates []Estimate) {
	best = -1
	estimates = make([]Estimate, len(candidates))
	for i, q := range candidates {
		estimates[i] = EstimateQueryWith(c, q, boundVars)
		if best == -1 || estimates[i].Cost < estimates[best].Cost {
			best = i
		}
	}
	return best, estimates
}

func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}
