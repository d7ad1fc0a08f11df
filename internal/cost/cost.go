// Package cost holds the statistics plans are priced from: per-relation
// cardinalities and per-column distinct counts (Catalog), and the Estimate
// type. It orders no joins: internal/datalog's compiler owns the join
// order, and its Estimate prices exactly the order a compiled plan runs.
// The statistics assume independence and uniformity; estimates rank plans,
// they do not predict wall-clock time.
package cost

import (
	"math"

	"repro/internal/storage"
)

// Catalog holds per-relation statistics used by the estimator. A nil
// *Catalog means "no statistics": every relation reads as unknown.
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
// how EvalQuery compiles its plan; distinct counts default to 1, so the
// compiler's join order degrades to bound-columns-first with
// smaller-relation tie-breaks.
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

// Rows returns the cardinality of a relation (1 if unknown — a missing
// relation joins like a singleton so unknown predicates do not dominate).
func (c *Catalog) Rows(pred string) float64 {
	if c == nil {
		return 1
	}
	if r, ok := c.rows[pred]; ok {
		return r
	}
	return 1
}

// Distinct returns the number of distinct values in a column (1 if
// unknown). The physical-plan compiler uses it to order joins, to pick the
// most selective index probe column and to price a plan.
func (c *Catalog) Distinct(pred string, col int) float64 {
	if c == nil {
		return 1
	}
	if d, ok := c.distinct[pred]; ok && col < len(d) {
		return d[col]
	}
	return 1
}

// Estimate is the estimated evaluation of one query or program. The
// physical-plan compiler (internal/datalog's Estimate) computes it by
// walking the join order its compiled plan runs.
type Estimate struct {
	// Cost is the total intermediate-result size (the quantity a nested-
	// loop evaluator is proportional to).
	Cost float64
	// Cardinality is the estimated output size before projection.
	Cardinality float64
}
