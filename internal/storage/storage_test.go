package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/cq"
)

func TestTupleKeyAndClone(t *testing.T) {
	a := Tuple{"x", "y"}
	b := Tuple{"x", "y"}
	if a.Key() != b.Key() {
		t.Fatal("equal tuples have different keys")
	}
	// Keys must distinguish boundary placement.
	if (Tuple{"xy", ""}).Key() == (Tuple{"x", "y"}).Key() {
		t.Fatal("key collision across boundaries")
	}
	c := a.Clone()
	c[0] = "z"
	if a[0] != "x" {
		t.Fatal("Clone shares storage")
	}
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("r", 2)
	if !r.Insert(Tuple{"a", "b"}) {
		t.Fatal("first insert not new")
	}
	if r.Insert(Tuple{"a", "b"}) {
		t.Fatal("duplicate insert reported new")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(Tuple{"a", "b"}) || r.Contains(Tuple{"b", "a"}) {
		t.Fatal("Contains wrong")
	}
	if r.Name() != "r" || r.Arity() != 2 {
		t.Fatal("metadata wrong")
	}
}

func TestRelationInsertArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	NewRelation("r", 2).Insert(Tuple{"a"})
}

func TestRelationInsertCopiesTuple(t *testing.T) {
	r := NewRelation("r", 1)
	src := Tuple{"a"}
	r.Insert(src)
	src[0] = "mutated"
	if r.Tuples()[0][0] != "a" {
		t.Fatal("Insert retained caller's slice")
	}
}

func TestRelationLookup(t *testing.T) {
	r := NewRelation("e", 2)
	r.Insert(Tuple{"a", "b"})
	r.Insert(Tuple{"a", "c"})
	r.Insert(Tuple{"b", "c"})
	got := r.Lookup(0, "a")
	if len(got) != 2 {
		t.Fatalf("Lookup(0,a) = %v", got)
	}
	if len(r.Lookup(1, "c")) != 2 {
		t.Fatal("Lookup(1,c) wrong")
	}
	if len(r.Lookup(0, "zzz")) != 0 {
		t.Fatal("Lookup miss wrong")
	}
	if r.Lookup(5, "a") != nil || r.Lookup(-1, "a") != nil {
		t.Fatal("out-of-range column")
	}
	// Index must see tuples inserted after it was built.
	r.Insert(Tuple{"a", "d"})
	if len(r.Lookup(0, "a")) != 3 {
		t.Fatal("stale index after insert")
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase()
	if err := db.Insert("r", Tuple{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("r", Tuple{"a"}); err == nil {
		t.Fatal("arity change accepted")
	}
	if db.Relation("r") == nil || db.Relation("nope") != nil {
		t.Fatal("Relation lookup wrong")
	}
	if _, err := db.Ensure("r", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ensure("r", 3); err == nil {
		t.Fatal("Ensure with wrong arity accepted")
	}
	if got := db.Predicates(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("Predicates = %v", got)
	}
	if db.TotalTuples() != 1 {
		t.Fatalf("TotalTuples = %d", db.TotalTuples())
	}
}

func TestDatabaseFacts(t *testing.T) {
	db := NewDatabase()
	if err := db.InsertFact(cq.NewAtom("r", cq.Const("a"), cq.Const("b"))); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertFact(cq.NewAtom("r", cq.Var("X"), cq.Const("b"))); err == nil {
		t.Fatal("non-ground fact accepted")
	}
	err := db.LoadFacts([]cq.Atom{
		cq.NewAtom("s", cq.Const("c")),
		cq.NewAtom("s", cq.Const("d")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("s").Len() != 2 {
		t.Fatal("LoadFacts missed tuples")
	}
}

func TestDatabaseClone(t *testing.T) {
	db := NewDatabase()
	db.Insert("r", Tuple{"a"})
	cl := db.Clone()
	cl.Insert("r", Tuple{"b"})
	cl.Insert("s", Tuple{"c"})
	if db.Relation("r").Len() != 1 || db.Relation("s") != nil {
		t.Fatal("Clone shares state")
	}
}

// TestDatabaseBind: a bound database holds the source's relations
// themselves — writes through either reach both — keeps the relations the
// source does not name, and skips names the source lacks.
func TestDatabaseBind(t *testing.T) {
	src := NewDatabase()
	src.Insert("r", Tuple{"a"})
	src.Insert("s", Tuple{"b"})
	sel := NewDatabase()
	sel.Bind(src, "r", "missing")
	if sel.Relation("r") != src.Relation("r") || sel.Relation("s") != nil || sel.Relation("missing") != nil {
		t.Fatalf("selection holds %s", sel.Summary())
	}
	sel.Relation("r").Insert(Tuple{"c"})
	if src.Relation("r").Len() != 2 {
		t.Fatal("a write through the selection did not reach the source")
	}
	dst := NewDatabase()
	dst.Insert("r", Tuple{"old"})
	dst.Insert("own", Tuple{"x"})
	dst.Bind(src)
	if dst.Relation("r") != src.Relation("r") || dst.Relation("s") != src.Relation("s") || dst.Relation("own").Len() != 1 {
		t.Fatalf("bound database holds %s", dst.Summary())
	}
}

func TestSortAndEqual(t *testing.T) {
	a := []Tuple{{"b"}, {"a"}}
	SortTuples(a)
	if a[0][0] != "a" {
		t.Fatal("SortTuples wrong")
	}
	if !TuplesEqual([]Tuple{{"x"}, {"y"}}, []Tuple{{"y"}, {"x"}}) {
		t.Fatal("TuplesEqual order-sensitive")
	}
	if TuplesEqual([]Tuple{{"x"}}, []Tuple{{"y"}}) {
		t.Fatal("TuplesEqual false positive")
	}
	if TuplesEqual([]Tuple{{"x"}}, []Tuple{{"x"}, {"x"}}) {
		t.Fatal("TuplesEqual length-insensitive")
	}
	// Two tuples sharing a Tuple.Key: the separator sits inside a value.
	x, y := Tuple{"a\x1fb", "c"}, Tuple{"a", "b\x1fc"}
	if x.Key() != y.Key() {
		t.Fatal("the colliding pair no longer collides")
	}
	if TuplesEqual([]Tuple{x}, []Tuple{y}) {
		t.Fatal("TuplesEqual confuses two tuples with the same key")
	}
}

func TestQuickInsertLookupConsistent(t *testing.T) {
	f := func(vals []uint8) bool {
		r := NewRelation("r", 1)
		want := make(map[string]bool)
		for _, v := range vals {
			s := string(rune('a' + v%16))
			r.Insert(Tuple{s})
			want[s] = true
		}
		if r.Len() != len(want) {
			return false
		}
		for s := range want {
			if len(r.Lookup(0, s)) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertMaintainsFrozenIndexes is the live-update regression test: an
// insert into a served relation must append to the column indexes its
// probes built instead of invalidating them (previously the version bump
// silently marked every index stale, forcing a full O(n) per-column rebuild
// on the next lookup), and the relation must stay served across maintained
// inserts. BuildIndexes itself builds nothing: the first probe of a column
// does.
func TestInsertMaintainsFrozenIndexes(t *testing.T) {
	r := NewRelation("r", 2)
	r.Insert(Tuple{"a", "1"})
	r.Insert(Tuple{"b", "2"})
	r.BuildIndexes()
	if !r.served {
		t.Fatal("not served after BuildIndexes")
	}
	for col := range 2 {
		if _, ok := r.ColumnIndex(col); ok {
			t.Fatalf("BuildIndexes built column %d before any probe", col)
		}
	}
	x0, _ := r.ProbeIndex(0)
	x1, _ := r.ProbeIndex(1)

	if !r.Insert(Tuple{"a", "3"}) {
		t.Fatal("insert not new")
	}
	if !r.served || !allBuilt(r) {
		t.Fatal("a maintained insert unserved the relation or dropped a column index")
	}
	// Both old and new tuples must be reachable through the maintained
	// index, without any rebuild.
	if y0, _ := r.ColumnIndex(0); y0 != x0 {
		t.Fatal("an insert replaced column 0's index")
	}
	if y1, _ := r.ColumnIndex(1); y1 != x1 {
		t.Fatal("an insert replaced column 1's index")
	}
	pos, ok := probe(r, 0, "a")
	if !ok || len(pos) != 2 {
		t.Fatalf("probe(0,a) = %v, %v; want 2 positions", pos, ok)
	}
	if got := r.Lookup(1, "3"); len(got) != 1 || got[0][0] != "a" {
		t.Fatalf("Lookup(1,3) = %v", got)
	}
	// Duplicate inserts must not disturb the indexes.
	if r.Insert(Tuple{"a", "3"}) {
		t.Fatal("duplicate reported new")
	}
	if pos, _ := probe(r, 0, "a"); len(pos) != 2 {
		t.Fatalf("duplicate insert changed index: %v", pos)
	}
}

// TestInsertMaintainsPartialIndexes: a relation with only some columns
// indexed (one-shot freeze paths build exactly the probed columns) keeps
// those indexes fresh across inserts too, and building a further column
// later starts from the complete tuple set.
func TestInsertMaintainsPartialIndexes(t *testing.T) {
	r := NewRelation("r", 2)
	r.Insert(Tuple{"a", "1"})
	r.BuildColumnIndex(0)
	if r.served || allBuilt(r) {
		t.Fatal("partially indexed relation reported served or fully built")
	}
	r.Insert(Tuple{"b", "2"})
	if pos, ok := probe(r, 0, "b"); !ok || len(pos) != 1 {
		t.Fatalf("maintained partial index lost the insert: %v, %v", pos, ok)
	}
	// Column 1 was never built; building it now must include every tuple.
	r.BuildColumnIndex(1)
	if pos, ok := probe(r, 1, "1"); !ok || len(pos) != 1 {
		t.Fatalf("late-built index incomplete: %v, %v", pos, ok)
	}
	if !allBuilt(r) {
		t.Fatal("all columns built, allBuilt still false")
	}
	if r.served {
		t.Fatal("explicit builds of every column served the relation")
	}
}

// TestInsertUnindexedStaysUnindexed: inserts into a never-indexed relation
// build nothing (maintenance only applies to already-built indexes), and a
// later lazy build sees every tuple.
func TestInsertUnindexedStaysUnindexed(t *testing.T) {
	r := NewRelation("r", 1)
	r.Insert(Tuple{"x"})
	if _, ok := probe(r, 0, "x"); ok {
		t.Fatal("unindexed relation reported positions")
	}
	r.Insert(Tuple{"y"})
	if r.served || allBuilt(r) {
		t.Fatal("insert served or indexed an unindexed relation")
	}
	if got := r.Lookup(0, "y"); len(got) != 1 {
		t.Fatalf("Lookup after lazy build = %v", got)
	}
}

func TestCloneKeepsFrozenState(t *testing.T) {
	db := NewDatabase()
	db.Insert("r", Tuple{"a", "b"})
	db.Insert("s", Tuple{"c"})
	probeAll(db.Relation("r"))
	clone := db.Clone()
	if !clone.Relation("r").served || !allBuilt(clone.Relation("r")) {
		t.Fatal("clone of a served relation must be served and hold its built indexes")
	}
	if clone.Relation("s").served || allBuilt(clone.Relation("s")) {
		t.Fatal("clone of an unserved, unindexed relation must stay so")
	}
	// The clone is independent: inserting into it leaves the source alone.
	clone.Insert("r", Tuple{"x", "y"})
	if db.Relation("r").Len() != 1 {
		t.Fatal("clone shares storage with source")
	}
	// The insert copied the built indexes (own) and maintained the copies.
	if pos, ok := probe(clone.Relation("r"), 0, "x"); !ok || len(pos) != 1 {
		t.Fatal("cloned served relation must serve maintained index probes")
	}
	if pos, ok := probe(db.Relation("r"), 0, "x"); !ok || len(pos) != 0 {
		t.Fatal("the clone's insert reached the source's index")
	}
}

// probeAll serves r and probes every column: the state a served relation
// is in once each of its columns has had its first probe.
func probeAll(r *Relation) {
	r.BuildIndexes()
	for col := range r.arity {
		r.ProbeIndex(col)
	}
}

// allBuilt reports whether every column of r has its index built. It reads
// ColumnIndex, so it builds nothing, also on a served relation: a mutation
// that dropped a built index fails it rather than being rebuilt.
func allBuilt(r *Relation) bool {
	for col := range r.arity {
		if _, ok := r.ColumnIndex(col); !ok {
			return false
		}
	}
	return r.arity > 0
}

// probe returns the positions column col's index chains for val, and
// whether that column is indexed; unlike Lookup it never builds an index.
func probe(r *Relation, col int, val string) ([]int, bool) {
	x, ok := r.ColumnIndex(col)
	if !ok {
		return nil, false
	}
	var ps []int
	for pos := x.First(r.Tuples(), val); pos >= 0; pos = x.Next(pos) {
		ps = append(ps, pos)
	}
	return ps, true
}
