package cost_test

// These tests pin how the catalog's statistics price plans. The pricing
// itself lives in internal/datalog, which imports this package, so they
// run in the external test package.

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

func mustQ(src string) *cq.Query { return cq.MustParseQuery(src) }

// sampleCatalog holds big (100 rows: 100 distinct values in column 0, 10
// in column 1) and small (5 rows).
func sampleCatalog() *cost.Catalog {
	db := storage.NewDatabase()
	for i := 0; i < 100; i++ {
		db.Insert("big", storage.Tuple{fmt.Sprint("a", i), fmt.Sprint("b", i%10)})
	}
	for i := 0; i < 5; i++ {
		db.Insert("small", storage.Tuple{fmt.Sprint("a", i)})
	}
	return cost.NewCatalog(db)
}

// TestEstimateOrdersByRowsAlone: a catalog that holds rows alone (no
// distinct counts, as NewRowCatalog builds) orders the join by rows alone.
// With X bound, s(X,Z) (100 rows) goes before r(X,Y) (1 000 rows):
// 100 + 100 × 1 000. Once the catalog knows that r has 1 000 distinct X
// and s one, r goes first: 1 + 1 × 100.
func TestEstimateOrdersByRowsAlone(t *testing.T) {
	q := mustQ("q(Y,Z) :- r(X,Y), s(X,Z)")
	rowsOnly := cost.NewCatalog(storage.NewDatabase())
	rowsOnly.SetRelation("r", 1000, nil)
	rowsOnly.SetRelation("s", 100, nil)
	if e := datalog.Estimate(q, []string{"X"}, rowsOnly); e.Cost != 100100 || e.Cardinality != 100000 {
		t.Fatalf("rows-only estimate %+v, want cost 100100 and cardinality 100000 (s before r)", e)
	}
	full := cost.NewCatalog(storage.NewDatabase())
	full.SetRelation("r", 1000, []float64{1000, 1000})
	full.SetRelation("s", 100, []float64{1, 100})
	if e := datalog.Estimate(q, []string{"X"}, full); e.Cost != 101 || e.Cardinality != 100 {
		t.Fatalf("estimate with distinct counts %+v, want cost 101 and cardinality 100 (r before s)", e)
	}
}
