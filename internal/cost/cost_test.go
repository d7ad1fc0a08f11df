package cost

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/storage"
)

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
	if c.Distinct("missing", 0) != 1 || c.Distinct("big", 2) != 1 {
		t.Fatal("unknown column should default to 1 distinct value")
	}
	if d := c.Distinct("big", 1); d != 10 {
		t.Fatalf("distinct(big,1) = %v", d)
	}
}

// TestNewCatalogReadsIndexes pins that NewCatalog reads distinct counts off
// built column indexes instead of scanning: over a served 100 000-tuple
// relation whose columns have been probed it allocates a constant few
// times (7; a per-column set of seen values cost 557), and it agrees with
// the catalog of an unindexed copy and of a served copy nothing has
// probed, whose columns are counted by a scan that keeps no index. Given
// predicates, it covers only those.
func TestNewCatalogReadsIndexes(t *testing.T) {
	const n = 100000
	db := storage.NewDatabase()
	plain := storage.NewDatabase()
	for i := 0; i < n; i++ {
		tu := storage.Tuple{fmt.Sprint("a", i), fmt.Sprint("b", i%1000)}
		db.Insert("r", tu)
		plain.Insert("r", tu)
	}
	lazy := plain.Clone()
	lazy.BuildIndexes()
	db.BuildIndexes()
	for col := range 2 {
		db.Relation("r").ProbeIndex(col)
	}
	if allocs := testing.AllocsPerRun(10, func() { NewCatalog(db) }); allocs > 16 {
		t.Fatalf("NewCatalog over a probed relation: %.0f allocs, want <= 16", allocs)
	}
	c := NewCatalog(db)
	if c.Rows("r") != n || c.Distinct("r", 0) != n || c.Distinct("r", 1) != 1000 {
		t.Fatalf("rows %v, distinct %v, %v", c.Rows("r"), c.Distinct("r", 0), c.Distinct("r", 1))
	}
	for name, other := range map[string]*storage.Database{"unindexed": plain, "unprobed served": lazy} {
		if u := NewCatalog(other); !reflect.DeepEqual(c, u) {
			t.Fatalf("indexed catalog %+v, %s %+v", c, name, u)
		}
		for col := range 2 {
			if _, built := other.Relation("r").ColumnIndex(col); built {
				t.Fatalf("NewCatalog built an index on column %d of the %s relation it counted", col, name)
			}
		}
	}
	if sub := NewCatalog(db, "r", "missing"); !reflect.DeepEqual(c, sub) {
		t.Fatalf("catalog of r %+v, of the whole database %+v", sub, c)
	}
	if none := NewCatalog(db, "missing"); len(none.rows) != 0 || len(none.distinct) != 0 {
		t.Fatalf("catalog of a missing predicate holds %v, %v", none.rows, none.distinct)
	}
}

// TestNewRowCatalog: a rows-only catalog covers the predicates it is
// given (all of them when none are), counts no distinct values, and skips
// a predicate the database does not hold, which then reads as unknown.
func TestNewRowCatalog(t *testing.T) {
	db := sampleDB()
	sub := NewRowCatalog(db, "small", "missing")
	if sub.Rows("small") != 5 || sub.Rows("big") != 1 || sub.Rows("missing") != 1 {
		t.Fatalf("subset rows: small=%v big=%v missing=%v", sub.Rows("small"), sub.Rows("big"), sub.Rows("missing"))
	}
	if _, ok := sub.rows["missing"]; ok {
		t.Fatal("a predicate missing from the database got a cardinality")
	}
	all := NewRowCatalog(db)
	if all.Rows("big") != 100 || all.Rows("small") != 5 || len(all.rows) != 2 {
		t.Fatalf("whole-database rows: %v", all.rows)
	}
	if all.Distinct("big", 1) != 1 || len(all.distinct) != 0 {
		t.Fatalf("rows-only catalog holds distinct counts: %v", all.distinct)
	}
}
