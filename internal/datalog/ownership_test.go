package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Ownership of what a run derives: rule-variant executions derive into
// pooled buffers and keep Skolem values in an arena of byte chunks, so a
// derived row must never alias a buffer that a later run reuses, and a
// Skolem value must never view bytes that are written again.

// inverseShapedProgram is an inverse-rules program over one view
// v(X,Y) :- r(X,Z), s(Z,Y): both inverse rules invent Z as the Skolem term
// f(X,Y), and the query rule q(X,Y) :- r(X,Z), s(Z,Y) joins on it.
func inverseShapedProgram() *Program {
	fz := &Skolem{Name: "f", Args: []string{"X", "Y"}}
	body := []cq.Atom{cq.NewAtom("v", cq.Var("X"), cq.Var("Y"))}
	return &Program{Rules: []Rule{
		{HeadPred: "r", Head: []HeadTerm{{Term: cq.Var("X")}, {Skolem: fz}}, Body: body},
		{HeadPred: "s", Head: []HeadTerm{{Skolem: fz}, {Term: cq.Var("Y")}}, Body: body},
		RuleFromQuery(mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")),
	}}
}

// deepCopy copies every tuple and every value, sharing no byte with rows.
func deepCopy(rows []storage.Tuple) []storage.Tuple {
	out := make([]storage.Tuple, len(rows))
	for i, row := range rows {
		out[i] = make(storage.Tuple, len(row))
		for j, v := range row {
			out[i][j] = strings.Clone(v)
		}
	}
	return out
}

// TestDerivedRowsOutliveLaterRuns: the rows of an inverse-rules run —
// derived relations whose Skolem values fill several arena chunks — read
// the same after 20 more runs of the same program, over databases of other
// values, and a collection: no later run writes into a buffer or a chunk an
// earlier result still views.
func TestDerivedRowsOutliveLaterRuns(t *testing.T) {
	views := func(tag string) *storage.Database {
		db := storage.NewDatabase()
		for i := 0; i < 1500; i++ {
			db.Insert("v", storage.Tuple{fmt.Sprintf("x%s%d", tag, i%700), fmt.Sprintf("y%s%d", tag, i)})
		}
		return db
	}
	edb := views("")
	cp, err := CompileProgram(inverseShapedProgram(), cost.NewRowCatalog(edb))
	if err != nil {
		t.Fatal(err)
	}
	first, want := map[string][]storage.Tuple{}, map[string][]storage.Tuple{}
	for _, pred := range []string{"r", "s", "q"} {
		if first[pred], _, err = cp.EvalRelation(edb, pred, 1); err != nil {
			t.Fatal(err)
		}
		want[pred] = deepCopy(first[pred])
	}
	if n := len(want["r"]); n != 1500 {
		t.Fatalf("r holds %d tuples, want 1500", n)
	}
	for _, row := range want["r"] {
		if v := row[1]; !IsSkolemValue(v) || !strings.HasPrefix(v, "⟨f:"+row[0]+"\x1f") {
			t.Fatalf("r row %q: the second column is not f(X,Y)", row)
		}
	}
	for run := 0; run < 20; run++ {
		other := views(fmt.Sprint(run))
		for _, pred := range []string{"r", "s", "q"} {
			if _, _, err := cp.EvalRelation(other, pred, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	for pred, rows := range first {
		for i, row := range rows {
			if row.Compare(want[pred][i]) != 0 {
				t.Fatalf("%s row %d reads %q after later runs, was %q", pred, i, row, want[pred][i])
			}
		}
	}
}

// TestMaintainedRelationsMatchNaive: after each of several mixed batches,
// with a collection between them, every maintained view equals
// EvalQueryNaive over the base facts as they stand, and the rows the first
// batch derived read as they did when it returned.
func TestMaintainedRelationsMatchNaive(t *testing.T) {
	views := []*cq.Query{
		mustQ("v1(X,Y) :- r(X,Z), s(Z,Y)"),
		mustQ("v2(X) :- r(X,Z), s(Z,Y)"),
		mustQ("v3(Y,X) :- s(Z,Y), r(X,Z), t(Z)"),
	}
	prog := &Program{}
	for _, v := range views {
		prog.Rules = append(prog.Rules, RuleFromQuery(v))
	}
	rng := rand.New(rand.NewSource(46))
	val := func(p string, n int) string { return fmt.Sprintf("%s%d", p, rng.Intn(n)) }
	base := storage.NewDatabase()
	for i := 0; i < 300; i++ {
		base.Insert("r", storage.Tuple{val("x", 60), val("z", 40)})
		base.Insert("s", storage.Tuple{val("z", 40), val("y", 60)})
		base.Insert("t", storage.Tuple{val("z", 40)})
	}
	cp, err := CompileProgramIVM(prog, cost.NewRowCatalog(base))
	if err != nil {
		t.Fatal(err)
	}
	maintained, err := cp.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	var firstDerived map[string][]storage.Tuple
	var firstCopy map[string][]storage.Tuple
	for batch := 0; batch < 8; batch++ {
		inserts, deletes := map[string][]storage.Tuple{}, map[string][]storage.Tuple{}
		for _, pred := range []string{"r", "s"} {
			for i := 0; i < 20; i++ {
				tup := storage.Tuple{val("x", 60), val("z", 40)}
				if pred == "s" {
					tup = storage.Tuple{val("z", 40), val("y", 60)}
				}
				inserts[pred] = append(inserts[pred], tup)
				if rel := base.Relation(pred); rel.Len() > 0 {
					deletes[pred] = append(deletes[pred], rel.Tuples()[rng.Intn(rel.Len())].Clone())
				}
			}
		}
		res, err := cp.ApplyUpdatesCtx(context.Background(), maintained, inserts, deletes, Limits{})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if batch == 0 {
			firstDerived = res.Derived
			firstCopy = map[string][]storage.Tuple{}
			for pred, rows := range res.Derived {
				firstCopy[pred] = deepCopy(rows)
			}
		}
		for pred, tuples := range deletes {
			for _, tup := range tuples {
				base.Remove(pred, tup)
			}
		}
		for pred, tuples := range inserts {
			for _, tup := range tuples {
				base.Insert(pred, tup)
			}
		}
		runtime.GC()
		for _, v := range views {
			want := EvalQueryNaive(base, v)
			if got := maintained.Relation(v.Head.Pred).Tuples(); !storage.TuplesEqual(got, want) {
				t.Fatalf("batch %d: %s holds %d tuples, naive %d", batch, v.Head.Pred, len(got), len(want))
			}
		}
		for pred, rows := range firstDerived {
			for i, row := range rows {
				if row.Compare(firstCopy[pred][i]) != 0 {
					t.Fatalf("batch %d: the first batch's %s row %d reads %q, was %q", batch, pred, i, row, firstCopy[pred][i])
				}
			}
		}
	}
}

// TestMergeClearsRejectedRows merges two buffers that share a row into one
// relation, the shared row last in the second buffer and, in a third, first:
// each buffer's rows are copied into one backing array of the buffer's
// size, the shared row is adopted once, and the slots past the adopted
// rows are empty, so the backing keeps no rejected value alive.
func TestMergeClearsRejectedRows(t *testing.T) {
	rule := &compiledRule{headPred: "p", arity: 2}
	buffer := func(rows ...storage.Tuple) *runScratch {
		sc := scratchPool.Get().(*runScratch)
		for _, row := range rows {
			sc.set.Add(row)
		}
		return sc
	}
	rel := storage.NewRelation("p", 2)
	shared := storage.Tuple{"shared", "row"}
	bufs := []*runScratch{
		buffer(storage.Tuple{"a", "1"}, shared),
		buffer(storage.Tuple{"b", "2"}, shared),
		buffer(shared, storage.Tuple{"c", "3"}),
	}
	tasks := []variantTask{{rule: rule}, {rule: rule}, {rule: rule}}
	cur, err := mergeRound(tasks, bufs, func(*compiledRule) (*storage.Relation, error) { return rel, nil })
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.Tuple{{"a", "1"}, shared, {"b", "2"}, {"c", "3"}}
	if got := rel.Tuples(); !storage.TuplesEqual(got, want) || !storage.TuplesEqual(cur["p"], want) {
		t.Fatalf("relation %q, delta %q, want %q", got, cur["p"], want)
	}
	// The second and third buffers each adopted one row into a backing of
	// two rows: their windows start it, and its second half is empty.
	for _, row := range rel.Tuples()[2:] {
		if cap(row) != 2 {
			t.Fatalf("row %q has capacity %d, want a window of 2", row, cap(row))
		}
		backing := unsafe.Slice(unsafe.SliceData(row), 4)
		if backing[2] != "" || backing[3] != "" {
			t.Fatalf("backing of %q keeps %q past its adopted row", row, backing[2:])
		}
	}
}

// TestInsertBaseClearsRejectedRows inserts a batch that repeats a row and
// re-inserts one the relation holds: the caller's values are copied into
// one backing array of the batch's size, the new rows are adopted as
// windows onto it, the rejected ones are truncated away and the slots past
// the last adopted row are empty, so the backing keeps no rejected value
// alive. A caller writing its tuples afterwards reaches nothing stored.
func TestInsertBaseClearsRejectedRows(t *testing.T) {
	db := storage.NewDatabase()
	if err := db.Insert("r", storage.Tuple{"present", "row"}); err != nil {
		t.Fatal(err)
	}
	batch := []storage.Tuple{{"a", "1"}, {"present", "row"}, {"b", "2"}, {"a", "1"}}
	fresh, err := insertBase(db, map[string][]storage.Tuple{"r": batch})
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.Tuple{{"a", "1"}, {"b", "2"}}
	rows := db.Relation("r").Tuples()
	if len(rows) != 3 || !storage.TuplesEqual(rows[1:], want) || !storage.TuplesEqual(fresh["r"], want) {
		t.Fatalf("relation %q, fresh %q, want %q after [present row]", rows, fresh["r"], want)
	}
	backing := unsafe.Slice(unsafe.SliceData(rows[1]), 2*len(batch))
	if unsafe.SliceData(rows[2]) != &backing[2] || cap(rows[1]) != 2 || cap(rows[2]) != 2 {
		t.Fatalf("the new rows are not adjacent windows of 2 onto one backing")
	}
	if tail := backing[4:]; strings.Join(tail, "") != "" {
		t.Fatalf("backing keeps %q past its adopted rows", tail)
	}
	for _, tu := range batch {
		tu[0], tu[1] = "clobbered", "clobbered"
	}
	if got := db.Relation("r").Tuples(); !storage.TuplesEqual(got, append([]storage.Tuple{{"present", "row"}}, want...)) {
		t.Fatalf("after the caller wrote its tuples the relation reads %q", got)
	}
}

// TestInsertBaseBoundsRetention: a batch's inserts are copied into one
// backing array per storage.ChunkRows rows, so a stored row pins its chunk
// and never the rest of the batch. The rows of a chunk are adjacent windows
// onto its array; once every row of the first chunk is removed, that array
// is collected while the later chunks' rows are still stored.
func TestInsertBaseBoundsRetention(t *testing.T) {
	n := 3*storage.ChunkRows + 8
	row := func(i int) storage.Tuple { return storage.Tuple{fmt.Sprint("k", i), "v"} }
	batch := make([]storage.Tuple, n)
	for i := range batch {
		batch[i] = row(i)
	}
	db := storage.NewDatabase()
	if _, err := insertBase(db, map[string][]storage.Tuple{"r": batch}); err != nil {
		t.Fatal(err)
	}
	rel := db.Relation("r")
	rows := rel.Tuples()
	if len(rows) != n {
		t.Fatalf("%d rows stored, want %d", len(rows), n)
	}
	for i := 1; i < n; i++ {
		next := unsafe.Add(unsafe.Pointer(unsafe.SliceData(rows[i-1])), 2*unsafe.Sizeof(""))
		if i%storage.ChunkRows != 0 && unsafe.Pointer(unsafe.SliceData(rows[i])) != next {
			t.Fatalf("row %d does not follow row %d in its chunk's backing", i, i-1)
		}
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(unsafe.SliceData(rows[0]), func(*string) { close(freed) })
	for i := 0; i < storage.ChunkRows; i++ {
		rel.Remove(row(i))
	}
	rows = nil
	collected := false
	for try := 0; try < 100 && !collected; try++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if got := rel.Len(); got != n-storage.ChunkRows {
		t.Fatalf("%d rows left, want %d", got, n-storage.ChunkRows)
	}
	if !collected {
		t.Fatalf("the first chunk's backing is still reachable with only later chunks' rows stored: a stored row pins more than %d rows", storage.ChunkRows)
	}
}
