package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/storage"
)

// sameRow reports whether a and b are one physical row, not merely equal.
func sameRow(a, b storage.Tuple) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// TestRetractedRowsAreStoredRows: the rows a DRed batch journals as
// removed, and the survivors it re-derives, are the very rows the database
// stored before the batch — over-deletion adopts them rather than copying,
// so a survivor is stored again as the row it was, while a row the insert
// phase derives again is a new one — and a batch rolled back by its budget
// leaves the database equal to its pre-batch state, row for row. Batches
// run back to back through the pooled maintenance scratch, so an
// over-deleted set kept from the batch before would surface as a
// retraction that did not happen.
func TestRetractedRowsAreStoredRows(t *testing.T) {
	prog := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
		RuleFromQuery(mustQ("two(X,Z) :- e(X,Y), e(Y,Z)")),
	)
	base := storage.NewDatabase()
	node := func(i int) string { return fmt.Sprint("n", i%14) }
	for i := 0; i < 14; i++ {
		base.Insert("e", storage.Tuple{node(i), node(i + 1)})
		if i%3 == 0 {
			base.Insert("e", storage.Tuple{node(i), node(i + 2)})
		}
	}
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cp.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	db.BuildIndexes()
	shadow := base.Clone()
	rng := rand.New(rand.NewSource(62))
	ctx := context.Background()
	// checkSameRows: every row db held before the batch and holds after it
	// is the same physical row, unless the batch removed it (removed) and
	// stored it again.
	checkSameRows := func(label string, before *storage.Database, removed map[string][]storage.Tuple) {
		t.Helper()
		for _, pred := range db.Predicates() {
			old := before.Relation(pred)
			for _, row := range db.Relation(pred).Tuples() {
				st, ok := old.Stored(row)
				if containsTuple(removed[pred], row) {
					continue
				}
				if ok && !sameRow(st, row) {
					t.Fatalf("%s: %s%q is a copy of the row stored before the batch", label, pred, row)
				}
			}
		}
	}
	for batch := 0; batch < 16; batch++ {
		label := fmt.Sprint("batch ", batch)
		es := shadow.Relation("e").Tuples()
		del := map[string][]storage.Tuple{"e": {es[rng.Intn(len(es))].Clone(), es[rng.Intn(len(es))].Clone()}}
		ins := map[string][]storage.Tuple{"e": {{node(rng.Intn(14)), node(rng.Intn(14))}}}
		before := db.Clone() // shares the stored rows

		if _, err := cp.ApplyUpdatesCtx(ctx, db, ins, del, Limits{MaxDerived: 1}); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: budgeted batch returned %v, want ErrBudgetExceeded", label, err)
		}
		if !db.Equal(before) {
			t.Fatalf("%s: rollback left\n%s\nwant\n%s", label, db.Summary(), before.Summary())
		}
		checkSameRows(label+" rolled back", before, nil)

		res, err := cp.ApplyUpdatesCtx(ctx, db, ins, del, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		rec := batchRecord(t, res, before, db)
		for _, m := range []map[string][]storage.Tuple{rec.removed, res.BaseDeleted} {
			for pred, rows := range m {
				for _, row := range rows {
					if st, ok := before.Relation(pred).Stored(row); !ok || !sameRow(st, row) {
						t.Fatalf("%s: retracted %s%q is not the row stored before the batch (stored: %v)", label, pred, row, ok)
					}
				}
			}
		}
		retracted := 0
		for _, pred := range []string{"tc", "two"} {
			lost := 0
			for _, row := range before.Relation(pred).Tuples() {
				if !db.Relation(pred).Contains(row) {
					lost++
					if !containsTuple(rec.removed[pred], row) {
						t.Fatalf("%s: %s%q was lost but not journaled as removed", label, pred, row)
					}
				}
			}
			// A pre-batch row stored again as a new row was retracted, then
			// derived again by the insert phase; one stored again as the
			// very row is a DRed survivor.
			gained := 0
			for _, row := range rec.stored[pred] {
				if st, ok := before.Relation(pred).Stored(row); ok && !sameRow(st, row) {
					gained++
				}
			}
			retracted += lost + gained
		}
		if res.NetRetracted != retracted {
			t.Fatalf("%s: %d rows reported retracted, %d lost or derived again", label, res.NetRetracted, retracted)
		}
		checkSameRows(label, before, rec.removed)

		for _, tu := range del["e"] {
			shadow.Remove("e", tu)
		}
		shadow.Insert("e", ins["e"][0])
		want, err := prog.EvalInterp(shadow)
		if err != nil {
			t.Fatal(err)
		}
		diffDatabases(t, label, db, want)
	}
}

// TestMaintPoolAcrossArities: the maintenance scratch pool serves every
// program, so an over-deleted set one batch leaves under a derived
// predicate's name may reach a program whose predicate of that name has
// another arity. Two programs deriving v/1 and v/2, over databases of their
// own, run DRed batches alternately through the one pool; each must keep
// its extents equal to re-materialization.
func TestMaintPoolAcrossArities(t *testing.T) {
	type side struct {
		prog   *Program
		cp     *CompiledProgram
		db     *storage.Database
		shadow *storage.Database
	}
	var sides []*side
	for _, src := range []string{"v(X) :- r(X,Y)", "v(X,Y) :- r(X,Z), s(Z,Y)"} {
		base := storage.NewDatabase()
		for i := 0; i < 10; i++ {
			base.Insert("r", storage.Tuple{fmt.Sprint("k", i), fmt.Sprint("z", i%4)})
			base.Insert("s", storage.Tuple{fmt.Sprint("z", i%4), fmt.Sprint("y", i)})
		}
		s := &side{prog: newProgram(RuleFromQuery(mustQ(src))), shadow: base}
		var err error
		if s.cp, err = CompileProgramIVM(s.prog, nil); err != nil {
			t.Fatal(err)
		}
		if s.db, err = s.cp.Eval(base.Clone()); err != nil {
			t.Fatal(err)
		}
		sides = append(sides, s)
	}
	for round := 0; round < 40; round++ {
		for i, s := range sides {
			rs := s.shadow.Relation("r").Tuples()
			del := map[string][]storage.Tuple{"r": {rs[round%len(rs)].Clone()}}
			ins := map[string][]storage.Tuple{"r": {{fmt.Sprint("n", round), fmt.Sprint("z", round%4)}}}
			if _, err := s.cp.ApplyUpdatesCtx(context.Background(), s.db, ins, del, Limits{}); err != nil {
				t.Fatalf("round %d, program %d: %v", round, i, err)
			}
			s.shadow.Remove("r", del["r"][0])
			s.shadow.Insert("r", ins["r"][0])
			want, err := s.prog.EvalInterp(s.shadow)
			if err != nil {
				t.Fatal(err)
			}
			diffDatabases(t, fmt.Sprintf("round %d, program %d", round, i), s.db, want)
		}
	}
}

// TestReleaseBoundsKeptDeadRoom: the over-deleted sets a maintenance
// scratch keeps for the next batch hold at most maxKeptDeadRows rows of
// room all together, however many predicates one batch over-deleted, and
// every set kept is empty.
func TestReleaseBoundsKeptDeadRoom(t *testing.T) {
	ms := maintPool.Get().(*maintScratch)
	for p := 0; p < 8; p++ {
		dead := storage.NewRelation(fmt.Sprint("v", p), 1)
		for i := 0; i < maxKeptDeadRows/3; i++ {
			dead.Adopt(storage.Tuple{fmt.Sprint(i)})
		}
		ms.od[dead.Name()] = dead
	}
	ms.release()
	kept := 0
	for pred, dead := range ms.od {
		if dead.Len() != 0 {
			t.Fatalf("kept set %s holds %d rows", pred, dead.Len())
		}
		kept += cap(dead.Tuples())
	}
	if kept > maxKeptDeadRows || len(ms.od) == 0 {
		t.Fatalf("release kept %d sets with %d rows of room, want at least one and at most %d rows", len(ms.od), kept, maxKeptDeadRows)
	}
}
