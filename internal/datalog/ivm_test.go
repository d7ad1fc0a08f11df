package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/storage"
)

// Differential property test for incremental view maintenance: on randomized
// update streams over random recursive programs — the progdiff corpus:
// transitive closures (linear and nonlinear), cycles, mutual recursion,
// Skolem heads, head constants, comparisons, don't-care columns — the
// incrementally maintained database must equal a full re-materialization
// from scratch after every batch, relation by relation, with exact set
// equality.

// randomUpdate draws one batch of base facts from the same distribution
// randomProgDB populates, so updates collide with existing tuples (no-op
// inserts) as often as they extend the database.
func randomUpdate(rng *rand.Rand) map[string][]storage.Tuple {
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	nodes := 3 + rng.Intn(6)
	upd := make(map[string][]storage.Tuple)
	for i := 0; i < 1+rng.Intn(4); i++ {
		upd["e"] = append(upd["e"], storage.Tuple{node(rng.Intn(nodes)), node(rng.Intn(nodes))})
	}
	if rng.Intn(2) == 0 {
		upd["u"] = append(upd["u"], storage.Tuple{node(rng.Intn(nodes))})
	}
	if rng.Intn(2) == 0 {
		upd["m"] = append(upd["m"], storage.Tuple{node(rng.Intn(nodes)), fmt.Sprint(rng.Intn(10))})
	}
	if rng.Intn(3) == 0 {
		upd["t3"] = append(upd["t3"], storage.Tuple{node(rng.Intn(nodes)), fmt.Sprint(rng.Intn(3)), fmt.Sprint(rng.Intn(3))})
	}
	return upd
}

func TestMaintainDeltaDifferential(t *testing.T) {
	streams := 400
	if testing.Short() {
		streams = 80
	}
	rng := rand.New(rand.NewSource(0x17A9))
	for stream := 0; stream < streams; stream++ {
		edb := randomProgDB(rng)
		prog := randomProgram(rng, stream)
		cp, err := CompileProgramIVM(prog, cost.NewRowCatalog(edb))
		if err != nil {
			t.Fatalf("stream %d: compile: %v\n%s", stream, err, prog)
		}

		// The maintained database: full materialization once, then deltas.
		maintained, err := cp.Eval(edb)
		if err != nil {
			t.Fatalf("stream %d: materialize: %v\n%s", stream, err, prog)
		}
		if rng.Intn(2) == 0 {
			maintained.BuildIndexes() // cover indexed probes and scan fallbacks
		}
		// The shadow EDB accumulates raw base facts for re-materialization.
		shadow := edb.Clone()

		batches := 1 + rng.Intn(4)
		for batch := 0; batch < batches; batch++ {
			upd := randomUpdate(rng)
			before := maintained.Clone()
			res, err := cp.ApplyUpdatesCtx(context.Background(), maintained, upd, nil, Limits{})
			if err != nil {
				t.Fatalf("stream %d batch %d: maintain: %v\n%s", stream, batch, err, prog)
			}
			fresh, stored, stats := res.BaseInserted, batchRecord(t, res, before, maintained).stored, res.Stats
			for pred, tuples := range upd {
				for _, tup := range tuples {
					if err := shadow.Insert(pred, tup); err != nil {
						t.Fatalf("stream %d batch %d: shadow insert: %v", stream, batch, err)
					}
				}
			}
			total := 0
			for pred, d := range stored {
				if _, idb := cp.idbArity[pred]; idb {
					total += len(d)
				}
			}
			if total != stats.Derived {
				t.Fatalf("stream %d batch %d: journal stored %d derived tuples, stats report %d", stream, batch, total, stats.Derived)
			}
			for pred, tuples := range fresh {
				for _, tup := range tuples {
					if !maintained.Relation(pred).Contains(tup) {
						t.Fatalf("stream %d batch %d: fresh tuple %s%v missing from db", stream, batch, pred, tup)
					}
				}
			}

			want, err := prog.EvalInterp(shadow)
			if err != nil {
				t.Fatalf("stream %d batch %d: interp: %v\n%s", stream, batch, err, prog)
			}
			diffDatabases(t, fmt.Sprintf("stream %d batch %d (incremental vs full)\n%s", stream, batch, prog), maintained, want)
		}
	}
}

// TestMaintainDeltaConjunctiveView is the deterministic engine-shaped case:
// a join view maintained under base inserts that create join partners both
// ways, including a batch where the two halves of a new join arrive
// together (the new⋈new case the post-batch database evaluation covers).
func TestMaintainDeltaConjunctiveView(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("s", storage.Tuple{"m", "x"})
	prog := newProgram(RuleFromQuery(mustQ("v(X,Y) :- r(X,Z), s(Z,Y)")))
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cp.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("v").Len() != 1 {
		t.Fatalf("initial extent = %v", db.Relation("v").Tuples())
	}
	// Eval's result is served: nothing is indexed before a probe asks,
	// and the caller's base, which is not served, gains no index at all.
	assertUnindexed(t, db.Relation("v"), "the materialized extent before any probe")
	for _, pred := range base.Predicates() {
		assertUnindexed(t, base.Relation(pred), "the caller's base after Eval")
	}
	probeColumns(db.Relation("v"))
	assertServed(t, db.Relation("v"))

	// Batch 1: a new r tuple joining an existing s tuple.
	before := db.Clone()
	res, err := cp.ApplyUpdatesCtx(context.Background(), db, map[string][]storage.Tuple{"r": {{"b", "m"}}}, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if derived := batchRecord(t, res, before, db).stored; len(derived["v"]) != 1 || derived["v"][0].Key() != (storage.Tuple{"b", "x"}).Key() {
		t.Fatalf("batch 1 derived %v, want v(b,x)", derived)
	}
	if res.Stats.Iterations != 1 {
		t.Fatalf("batch 1 iterations = %d", res.Stats.Iterations)
	}

	// Batch 2: both halves of a fresh join arrive in one batch, plus a
	// duplicate base fact that must not derive anything.
	before = db.Clone()
	res, err = cp.ApplyUpdatesCtx(context.Background(), db, map[string][]storage.Tuple{
		"r": {{"c", "n"}, {"a", "m"}},
		"s": {{"n", "y"}},
	}, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if derived := batchRecord(t, res, before, db).stored; len(derived["v"]) != 1 || derived["v"][0].Key() != (storage.Tuple{"c", "y"}).Key() {
		t.Fatalf("batch 2 derived %v, want exactly v(c,y)", derived)
	}
	assertServed(t, db.Relation("v"))
	for _, pred := range base.Predicates() {
		assertUnindexed(t, base.Relation(pred), "the caller's base after maintenance")
	}
}

// TestMaintainDeltaRecursive extends a transitive-closure chain by one edge
// and checks the propagation derives exactly the new closure tuples in a
// number of rounds proportional to the chain, against full recomputation.
func TestMaintainDeltaRecursive(t *testing.T) {
	base := storage.NewDatabase()
	for i := 0; i < 10; i++ {
		base.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
	}
	prog := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cp.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	db.BuildIndexes()
	pre := db.Clone()
	before := db.Relation("tc").Len()

	res, err := cp.ApplyUpdatesCtx(context.Background(), db, map[string][]storage.Tuple{"e": {{"10", "11"}}}, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	derived := batchRecord(t, res, pre, db).stored
	// The new edge closes 0..10 → 11: eleven new tc tuples.
	if len(derived["tc"]) != 11 {
		t.Fatalf("derived %d tc tuples, want 11: %v", len(derived["tc"]), derived["tc"])
	}
	if db.Relation("tc").Len() != before+11 {
		t.Fatalf("tc grew by %d, want 11", db.Relation("tc").Len()-before)
	}
	shadow := base.Clone()
	shadow.Insert("e", storage.Tuple{"10", "11"})
	want, err := prog.EvalInterp(shadow)
	if err != nil {
		t.Fatal(err)
	}
	diffDatabases(t, "recursive maintenance", db, want)
}

func TestMaintainDeltaErrors(t *testing.T) {
	prog := newProgram(RuleFromQuery(mustQ("v(X) :- r(X,Y)")))
	plain, err := CompileProgram(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	if _, err := plain.ApplyUpdatesCtx(context.Background(), db, nil, nil, Limits{}); err != ErrNotMaintenance {
		t.Fatalf("non-IVM program: err = %v, want ErrNotMaintenance", err)
	}

	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert("r", storage.Tuple{"a", "b"})
	mdb, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	// Inserting into the derived relation is rejected.
	if _, err := cp.ApplyUpdatesCtx(context.Background(), mdb, map[string][]storage.Tuple{"v": {{"z"}}}, nil, Limits{}); err == nil {
		t.Fatal("insert into derived relation accepted")
	}
	// Arity mismatches are rejected before anything is mutated.
	if _, err := cp.ApplyUpdatesCtx(context.Background(), mdb, map[string][]storage.Tuple{
		"r":     {{"c", "d"}},
		"wrong": {{"1"}, {"1", "2"}},
	}, nil, Limits{}); err == nil {
		t.Fatal("mixed-arity batch accepted")
	}
	if mdb.Relation("r").Len() != 1 || mdb.Relation("wrong") != nil {
		t.Fatal("failed batch mutated the database")
	}
	// An empty batch is a no-op.
	before := mdb.Clone()
	res, err := cp.ApplyUpdatesCtx(context.Background(), mdb, nil, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseInserted) != 0 || len(batchRecord(t, res, before, mdb).stored) != 0 || res.Stats.Iterations != 0 || res.Stats.Derived != 0 {
		t.Fatalf("empty batch did work: %+v", res)
	}
}

// TestApplyUpdatesReturnsStoredTuples: a batch's result carries the tuples
// the database stores, never the caller's — the fresh base tuples are
// Insert's copies, the effective deletions the copies that were removed, and
// every derived tuple is the stored one, a capacity-limited window — so a
// serving side may adopt them, and a caller that writes its tuples after
// the batch changes nothing the database holds.
func TestApplyUpdatesReturnsStoredTuples(t *testing.T) {
	prog := newProgram(RuleFromQuery(mustQ("v(X,Z) :- r(X,Y), s(Y,Z)")))
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := storage.NewDatabase()
	for _, f := range []struct {
		pred string
		t    storage.Tuple
	}{{"r", storage.Tuple{"a", "m"}}, {"r", storage.Tuple{"b", "n"}}, {"s", storage.Tuple{"m", "x"}}, {"s", storage.Tuple{"n", "y"}}} {
		base.Insert(f.pred, f.t)
	}
	db, err := cp.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	removed := db.Relation("r").Tuples()[1] // r(b,n), stored
	ins := map[string][]storage.Tuple{"r": {{"c", "m"}, {"c", "n"}, {"a", "m"}}, "s": {{"n", "z"}}}
	del := map[string][]storage.Tuple{"r": {{"b", "n"}, {"b", "n"}}}
	before := db.Clone()
	res, err := cp.ApplyUpdatesCtx(context.Background(), db, ins, del, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	derived := batchRecord(t, res, before, db).stored["v"]
	isStored := func(what, pred string, tu storage.Tuple) {
		t.Helper()
		st, ok := db.Relation(pred).Stored(tu)
		if !ok || unsafe.SliceData(st) != unsafe.SliceData(tu) || cap(tu) != len(tu) {
			t.Fatalf("%s %s%q is not the stored tuple (present %v)", what, pred, tu, ok)
		}
	}
	for pred, tuples := range res.BaseInserted {
		for _, tu := range tuples {
			isStored("inserted", pred, tu)
		}
	}
	if got := res.BaseDeleted["r"]; len(got) != 1 || unsafe.SliceData(got[0]) != unsafe.SliceData(removed) {
		t.Fatalf("deleted %q, want the one stored r(b,n)", got)
	}
	if len(derived) != 3 {
		t.Fatalf("derived %q, want three v tuples", derived)
	}
	for _, tu := range derived {
		isStored("derived", "v", tu)
	}

	for _, m := range []map[string][]storage.Tuple{ins, del} {
		for _, tuples := range m {
			for _, tu := range tuples {
				tu[0], tu[1] = "clobbered", "clobbered"
			}
		}
	}
	shadow := base.Clone()
	shadow.Remove("r", storage.Tuple{"b", "n"})
	shadow.Insert("r", storage.Tuple{"c", "m"})
	shadow.Insert("r", storage.Tuple{"c", "n"})
	shadow.Insert("s", storage.Tuple{"n", "z"})
	want, err := prog.EvalInterp(shadow)
	if err != nil {
		t.Fatal(err)
	}
	diffDatabases(t, "after the caller overwrote its tuples", db, want)
}

// probeColumns probes every column of rel; a served relation builds each
// column's index at its first probe.
func probeColumns(rel *storage.Relation) {
	for col := range rel.Arity() {
		rel.ProbeIndex(col)
	}
}

// assertServed fails unless every column of rel has an index built that
// finds exactly the tuples a scan finds. It reads ColumnIndex, which builds
// none, so an index that maintenance dropped is not rebuilt here.
func assertServed(t *testing.T, rel *storage.Relation) {
	t.Helper()
	tuples := rel.Tuples()
	for col := 0; col < rel.Arity(); col++ {
		x, ok := rel.ColumnIndex(col)
		if !ok {
			t.Fatalf("%s: column %d has no index built", rel.Name(), col)
		}
		for _, tu := range tuples {
			n, want := 0, 0
			for pos := x.First(tuples, tu[col]); pos >= 0; pos = x.Next(pos) {
				n++
			}
			for _, s := range tuples {
				if s[col] == tu[col] {
					want++
				}
			}
			if n != want {
				t.Fatalf("%s: column %d's index finds %d tuples holding %q, a scan %d", rel.Name(), col, n, tu[col], want)
			}
		}
	}
}

// assertUnindexed fails if any column of rel has an index built.
func assertUnindexed(t *testing.T, rel *storage.Relation, what string) {
	t.Helper()
	for col := 0; col < rel.Arity(); col++ {
		if _, ok := rel.ColumnIndex(col); ok {
			t.Fatalf("%s: column %d of %s is indexed", what, col, rel.Name())
		}
	}
}
