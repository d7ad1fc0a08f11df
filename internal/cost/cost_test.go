package cost

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cq"
	"repro/internal/storage"
)

func mustQ(src string) *cq.Query { return cq.MustParseQuery(src) }

func sampleDB() *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < 100; i++ {
		db.Insert("big", storage.Tuple{tupleVal("a", i), tupleVal("b", i%10)})
	}
	for i := 0; i < 5; i++ {
		db.Insert("small", storage.Tuple{tupleVal("a", i)})
	}
	return db
}

func tupleVal(p string, i int) string { return p + string(rune('0'+i%10)) + string(rune('0'+i/10%10)) }

func TestCatalogStats(t *testing.T) {
	c := NewCatalog(sampleDB())
	if c.Rows("big") != 100 || c.Rows("small") != 5 {
		t.Fatalf("rows: big=%v small=%v", c.Rows("big"), c.Rows("small"))
	}
	if c.Rows("missing") != 1 {
		t.Fatal("missing relation should default to 1")
	}
	if d := c.distinctAt("big", 1); d != 10 {
		t.Fatalf("distinct(big,1) = %v", d)
	}
}

func TestEstimateQueryPrefersSelectiveDriver(t *testing.T) {
	c := NewCatalog(sampleDB())
	q := mustQ("q(X) :- big(X,Y), small(X)")
	e := EstimateQuery(c, q)
	if len(e.Order) != 2 {
		t.Fatalf("order = %v", e.Order)
	}
	// The evaluator starts with the smaller relation (index 1 = small).
	if e.Order[0] != 1 {
		t.Fatalf("driver should be small, order = %v", e.Order)
	}
	if e.Cost <= 0 || e.Cardinality <= 0 {
		t.Fatalf("estimate = %+v", e)
	}
}

func TestEstimateConstantsFilter(t *testing.T) {
	c := NewCatalog(sampleDB())
	all := EstimateQuery(c, mustQ("q(X,Y) :- big(X,Y)"))
	filtered := EstimateQuery(c, mustQ("q(X) :- big(X,b3)"))
	if filtered.Cardinality >= all.Cardinality {
		t.Fatalf("constant filter did not reduce cardinality: %v vs %v", filtered.Cardinality, all.Cardinality)
	}
}

func TestEstimateComparisonsReduce(t *testing.T) {
	c := NewCatalog(sampleDB())
	plain := EstimateQuery(c, mustQ("q(X,Y) :- big(X,Y)"))
	comp := EstimateQuery(c, mustQ("q(X,Y) :- big(X,Y), X < Y"))
	if comp.Cardinality >= plain.Cardinality {
		t.Fatal("comparison did not reduce cardinality")
	}
}

func TestChoosePrefersMaterializedJoin(t *testing.T) {
	// Simulate a pre-joined view that is much smaller than the cross of
	// its base relations.
	c := NewCatalog(storage.NewDatabase())
	c.SetRelation("r", 10000, []float64{1000, 500})
	c.SetRelation("s", 10000, []float64{500, 1000})
	c.SetRelation("v_joined", 800, []float64{600, 600})
	direct := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	viaView := mustQ("q(X,Y) :- v_joined(X,Y)")
	best, ests := Choose(c, []*cq.Query{direct, viaView})
	if best != 1 {
		t.Fatalf("Choose picked %d (estimates %+v)", best, ests)
	}
}

func TestEstimateUnion(t *testing.T) {
	c := NewCatalog(sampleDB())
	u := cq.NewUnion(mustQ("q(X) :- small(X)"), mustQ("q(X) :- big(X,Y)"))
	e := EstimateUnion(c, u)
	single := EstimateQuery(c, mustQ("q(X) :- small(X)"))
	if e.Cost <= single.Cost {
		t.Fatal("union cost should exceed a single member")
	}
}

func TestEstimateQueryWithBoundParams(t *testing.T) {
	c := NewCatalog(sampleDB())
	q := mustQ("q(X) :- big(X,P)")
	free := EstimateQuery(c, q)
	bound := EstimateQueryWith(c, q, []string{"P"})
	if bound.Cardinality >= free.Cardinality || bound.Cost >= free.Cost {
		t.Fatalf("pre-bound parameter did not filter: bound=%+v free=%+v", bound, free)
	}
	// A bound parameter behaves like the equivalent constant selection.
	asConst := EstimateQuery(c, mustQ("q(X) :- big(X,b3)"))
	if bound.Cardinality != asConst.Cardinality {
		t.Fatalf("bound param %v != constant %v", bound.Cardinality, asConst.Cardinality)
	}
}

func TestEstimateQueryWithBoundDrivesJoinOrder(t *testing.T) {
	c := NewCatalog(sampleDB())
	q := mustQ("q(Y) :- big(P,Y), small(Z)")
	e := EstimateQueryWith(c, q, []string{"P"})
	// With P bound, big has a bound column and must drive despite being the
	// larger relation.
	if e.Order[0] != 0 {
		t.Fatalf("order = %v, want the parameter-bound atom first", e.Order)
	}
}

// TestEstimateOrdersByRowsAlone pins the documented gap between Order and a
// compiled plan's step order: among atoms with as many bound columns, the
// estimate takes the one with fewer rows, whatever its distinct counts.
// With X bound, s(X,Z) (100 rows, one distinct X) goes before r(X,Y) (1 000
// rows, 1 000 distinct X) here, though a compiled plan joins r first.
func TestEstimateOrdersByRowsAlone(t *testing.T) {
	c := NewCatalog(storage.NewDatabase())
	c.SetRelation("r", 1000, []float64{1000, 1000})
	c.SetRelation("s", 100, []float64{1, 100})
	e := EstimateQueryWith(c, mustQ("q(Y,Z) :- r(X,Y), s(X,Z)"), []string{"X"})
	if !reflect.DeepEqual(e.Order, []int{1, 0}) {
		t.Fatalf("order = %v, want s before r", e.Order)
	}
}

// TestEstimateUnionBuildsNoOrder: a union's estimate sums its members' costs
// and has no join order of its own.
func TestEstimateUnionBuildsNoOrder(t *testing.T) {
	c := NewCatalog(sampleDB())
	u := cq.NewUnion(mustQ("q(X) :- big(X,P), small(P)"), mustQ("q(X) :- small(X)"))
	e := EstimateUnion(c, u)
	if e.Order != nil {
		t.Fatalf("union order = %v, want none", e.Order)
	}
	var cost float64
	for _, m := range u.Queries {
		cost += EstimateQuery(c, m).Cost
	}
	if e.Cost != cost {
		t.Fatalf("union cost %v, want the members' sum %v", e.Cost, cost)
	}
}

func TestChooseWithBoundParams(t *testing.T) {
	// v_wide is cheaper scanned cold, but with the parameter bound the
	// highly selective v_sel wins: ChooseWith must flip the decision.
	c := NewCatalog(storage.NewDatabase())
	c.SetRelation("v_wide", 1000, []float64{2, 2})
	c.SetRelation("v_sel", 2000, []float64{2000, 2000})
	a := mustQ("q(X) :- v_wide(X,P)")
	b := mustQ("q(X) :- v_sel(X,P)")
	cold, _ := Choose(c, []*cq.Query{a, b})
	warm, ests := ChooseWith(c, []*cq.Query{a, b}, []string{"P"})
	if cold != 0 || warm != 1 {
		t.Fatalf("cold=%d warm=%d (estimates %+v), want 0 then 1", cold, warm, ests)
	}
}

func TestEstimateUnionWith(t *testing.T) {
	c := NewCatalog(sampleDB())
	u := cq.NewUnion(mustQ("q(X) :- big(X,P)"), mustQ("q(X) :- small(X)"))
	free := EstimateUnion(c, u)
	bound := EstimateUnionWith(c, u, []string{"P"})
	if bound.Cost >= free.Cost {
		t.Fatalf("bound union cost %v, want below %v", bound.Cost, free.Cost)
	}
}

func TestCatalogClone(t *testing.T) {
	c := NewCatalog(sampleDB())
	n := c.Clone()
	n.SetRelation("big", 7, []float64{7, 7})
	if c.Rows("big") != 100 || c.Distinct("big", 1) != 10 {
		t.Fatalf("Clone leaked overrides into the original: rows=%v", c.Rows("big"))
	}
	if n.Rows("big") != 7 || n.Rows("small") != 5 {
		t.Fatalf("clone stats wrong: big=%v small=%v", n.Rows("big"), n.Rows("small"))
	}
}

func TestChooseEmpty(t *testing.T) {
	c := NewCatalog(storage.NewDatabase())
	best, ests := Choose(c, nil)
	if best != -1 || len(ests) != 0 {
		t.Fatalf("Choose on empty = %d, %v", best, ests)
	}
}

// TestNewCatalogReadsIndexes pins that NewCatalog reads distinct counts off
// built column indexes instead of scanning: over a frozen 100 000-tuple
// relation it allocates a constant few times (7; a per-column set of seen
// values cost 557), and it agrees with the catalog of an unindexed copy,
// whose columns are counted by throwaway indexes.
func TestNewCatalogReadsIndexes(t *testing.T) {
	const n = 100000
	db := storage.NewDatabase()
	plain := storage.NewDatabase()
	for i := 0; i < n; i++ {
		tu := storage.Tuple{fmt.Sprint("a", i), fmt.Sprint("b", i%1000)}
		db.Insert("r", tu)
		plain.Insert("r", tu)
	}
	db.BuildIndexes()
	if allocs := testing.AllocsPerRun(10, func() { NewCatalog(db) }); allocs > 16 {
		t.Fatalf("NewCatalog over a frozen relation: %.0f allocs, want <= 16", allocs)
	}
	c := NewCatalog(db)
	if c.Rows("r") != n || c.Distinct("r", 0) != n || c.Distinct("r", 1) != 1000 {
		t.Fatalf("rows %v, distinct %v, %v", c.Rows("r"), c.Distinct("r", 0), c.Distinct("r", 1))
	}
	if u := NewCatalog(plain); !reflect.DeepEqual(c, u) {
		t.Fatalf("indexed catalog %+v, unindexed %+v", c, u)
	}
	if _, built := plain.Relation("r").ColumnIndex(0); built {
		t.Fatal("NewCatalog built an index on the relation it counted")
	}
}
