package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
)

// Differential property tests for non-monotone maintenance: on randomized
// mixed insert/delete streams over the progdiff corpus — flat view sets and
// recursive, mutually recursive, and Skolem-head programs, all maintained by
// DRed — the maintained database must equal a full re-materialization from
// the surviving base facts after every batch, relation by relation.

// randomDeletes draws a batch of deletions: mostly tuples present in the
// shadow EDB (so deletions actually bite), plus the occasional absent
// tuple that must be a no-op.
func randomDeletes(rng *rand.Rand, edb *storage.Database) map[string][]storage.Tuple {
	del := make(map[string][]storage.Tuple)
	for _, pred := range []string{"e", "u", "m", "t3"} {
		rel := edb.Relation(pred)
		if rel == nil || rel.Len() == 0 || rng.Intn(3) == 0 {
			continue
		}
		tuples := rel.Tuples()
		for i := 0; i < 1+rng.Intn(3); i++ {
			del[pred] = append(del[pred], tuples[rng.Intn(len(tuples))])
		}
	}
	if rng.Intn(4) == 0 {
		del["e"] = append(del["e"], storage.Tuple{"zz", "zz"})
	}
	return del
}

func TestApplyUpdatesDifferential(t *testing.T) {
	streams := 300
	if testing.Short() {
		streams = 60
	}
	rng := rand.New(rand.NewSource(0xDE1E7E))
	for stream := 0; stream < streams; stream++ {
		edb := randomProgDB(rng)
		prog := randomProgram(rng, stream)
		cp, err := CompileProgramIVM(prog, cost.NewRowCatalog(edb))
		if err != nil {
			t.Fatalf("stream %d: compile: %v\n%s", stream, err, prog)
		}
		maintained, err := cp.Eval(edb)
		if err != nil {
			t.Fatalf("stream %d: materialize: %v\n%s", stream, err, prog)
		}
		if rng.Intn(2) == 0 {
			maintained.BuildIndexes()
		}
		shadow := edb.Clone()

		batches := 2 + rng.Intn(4)
		for batch := 0; batch < batches; batch++ {
			var ins, del map[string][]storage.Tuple
			switch rng.Intn(4) {
			case 0: // delete-heavy
				del = randomDeletes(rng, shadow)
			case 1: // insert-only
				ins = randomUpdate(rng)
			default: // mixed churn
				del = randomDeletes(rng, shadow)
				ins = randomUpdate(rng)
			}
			before := maintained.Clone()
			res, err := cp.ApplyUpdatesCtx(context.Background(), maintained, ins, del, Limits{})
			if err != nil {
				t.Fatalf("stream %d batch %d: update: %v\n%s", stream, batch, err, prog)
			}
			rec := batchRecord(t, res, before, maintained)
			// Shadow semantics: deletions first, then insertions.
			for pred, tuples := range del {
				for _, tup := range tuples {
					shadow.Remove(pred, tup)
				}
			}
			for pred, tuples := range ins {
				for _, tup := range tuples {
					if err := shadow.Insert(pred, tup); err != nil {
						t.Fatalf("stream %d batch %d: shadow insert: %v", stream, batch, err)
					}
				}
			}
			// Result bookkeeping must match the database.
			for pred, tuples := range res.BaseDeleted {
				for _, tup := range tuples {
					if maintained.Relation(pred) != nil && maintained.Relation(pred).Contains(tup) {
						if !containsTuple(res.BaseInserted[pred], tup) && !containsTuple(ins[pred], tup) {
							t.Fatalf("stream %d batch %d: deleted base tuple %s%v survives", stream, batch, pred, tup)
						}
					}
				}
			}
			for pred, tuples := range rec.stored {
				for _, tup := range tuples {
					if !maintained.Relation(pred).Contains(tup) {
						t.Fatalf("stream %d batch %d: derived tuple %s%v missing", stream, batch, pred, tup)
					}
				}
			}
			for pred, tuples := range rec.removed {
				for _, tup := range tuples {
					if maintained.Relation(pred).Contains(tup) && !containsTuple(rec.stored[pred], tup) {
						t.Fatalf("stream %d batch %d: retracted tuple %s%v survives", stream, batch, pred, tup)
					}
				}
			}

			want, err := prog.EvalInterp(shadow)
			if err != nil {
				t.Fatalf("stream %d batch %d: interp: %v\n%s", stream, batch, err, prog)
			}
			diffDatabases(t, fmt.Sprintf("stream %d batch %d (mixed update vs full)\n%s", stream, batch, prog), maintained, want)
		}
	}
}

// batchRows is an applied batch read back from its journal (batchRecord).
type batchRows struct {
	// stored are the rows past the journal's insert marks, per predicate:
	// the fresh base rows, the DRed survivors and the new derivations.
	stored map[string][]storage.Tuple
	// removed are the rows the journal removed, per predicate: the
	// pre-batch rows the batch lost, and those it stored again — a row
	// past the insert marks was absent when it was stored, so a pre-batch
	// row there was removed first.
	removed map[string][]storage.Tuple
	// lost are the removed rows the database no longer holds.
	lost map[string][]storage.Tuple
}

// batchRecord reads res's journal back against before, a clone of the
// database taken before the batch, and after, the database itself. It
// fails t unless the journal replayed onto another clone of before gives
// after, relation for relation, and returns the rows the journal recorded.
func batchRecord(t *testing.T, res *UpdateResult, before, after *storage.Database) batchRows {
	t.Helper()
	all := func(string) bool { return true }
	mirror := before.Clone()
	if err := res.Journal.Replay(storage.NewJournal(mirror), all); err != nil {
		t.Fatalf("replaying the batch's journal: %v", err)
	}
	diffDatabases(t, "journal replayed onto the pre-batch database", mirror, after)
	tail := storage.NewDatabase()
	if err := res.Journal.Replay(storage.NewJournal(tail), all); err != nil {
		t.Fatalf("replaying the batch's journal: %v", err)
	}
	rec := batchRows{stored: map[string][]storage.Tuple{}, removed: map[string][]storage.Tuple{}, lost: map[string][]storage.Tuple{}}
	for _, pred := range tail.Predicates() {
		if rows := tail.Relation(pred).Tuples(); len(rows) > 0 {
			rec.stored[pred] = rows
		}
	}
	for _, pred := range before.Predicates() {
		now, again := after.Relation(pred), tail.Relation(pred)
		for _, row := range before.Relation(pred).Tuples() {
			switch {
			case now == nil || !now.Contains(row):
				rec.lost[pred] = append(rec.lost[pred], row)
				rec.removed[pred] = append(rec.removed[pred], row)
			case again != nil && again.Contains(row):
				rec.removed[pred] = append(rec.removed[pred], row)
			}
		}
	}
	return rec
}

func containsTuple(ts []storage.Tuple, tup storage.Tuple) bool {
	for _, t := range ts {
		if t.Key() == tup.Key() {
			return true
		}
	}
	return false
}

// TestApplyUpdatesFlatViews pins what DRed must get right on a flat view
// set that randomized streams hit only by chance: cross-rule support,
// multiple derivations within one rule, and a same-tuple delete+insert in
// one batch.
func TestApplyUpdatesFlatViews(t *testing.T) {
	prog := newProgram(
		RuleFromQuery(mustQ("v(X) :- a(X)")),
		RuleFromQuery(mustQ("v(X) :- b(X)")),
		RuleFromQuery(mustQ("w(X) :- r(X,Y)")),
	)
	base := storage.NewDatabase()
	base.Insert("a", storage.Tuple{"1"})
	base.Insert("b", storage.Tuple{"1"})
	base.Insert("r", storage.Tuple{"1", "p"})
	base.Insert("r", storage.Tuple{"1", "q"})
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cp.Eval(base)
	if err != nil {
		t.Fatal(err)
	}

	// apply runs one batch and reads it back from its journal.
	apply := func(ins, del map[string][]storage.Tuple) (*UpdateResult, batchRows) {
		t.Helper()
		before := db.Clone()
		res, err := cp.ApplyUpdatesCtx(context.Background(), db, ins, del, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		return res, batchRecord(t, res, before, db)
	}

	// Cross-rule: v(1) has two supports; losing one must not retract it.
	res, rec := apply(nil, map[string][]storage.Tuple{"a": {{"1"}}})
	if len(rec.lost["v"]) != 0 || res.NetRetracted != 0 || !db.Relation("v").Contains(storage.Tuple{"1"}) {
		t.Fatalf("v(1) retracted with a surviving support: %v (%d net)", rec.lost, res.NetRetracted)
	}
	res, rec = apply(nil, map[string][]storage.Tuple{"b": {{"1"}}})
	if len(rec.lost["v"]) != 1 || res.NetRetracted != 1 || db.Relation("v").Contains(storage.Tuple{"1"}) {
		t.Fatalf("v(1) must go when its last support does: %v (%d net)", rec.lost, res.NetRetracted)
	}

	// Within-rule multiplicity: w(1) has two r-derivations.
	res, rec = apply(nil, map[string][]storage.Tuple{"r": {{"1", "p"}}})
	if len(rec.lost["w"]) != 0 || res.NetRetracted != 0 || !db.Relation("w").Contains(storage.Tuple{"1"}) {
		t.Fatal("w(1) retracted while r(1,q) still derives it")
	}

	// Same-tuple delete+insert in one batch nets to present.
	_, err = cp.ApplyUpdatesCtx(context.Background(), db,
		map[string][]storage.Tuple{"r": {{"1", "q"}}},
		map[string][]storage.Tuple{"r": {{"1", "q"}}}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Relation("w").Contains(storage.Tuple{"1"}) || !db.Relation("r").Contains(storage.Tuple{"1", "q"}) {
		t.Fatal("delete+insert of the same tuple must net to present")
	}
	// And w(1) kept exactly one derivation: one more delete retracts.
	res, rec = apply(nil, map[string][]storage.Tuple{"r": {{"1", "q"}}})
	if len(rec.lost["w"]) != 1 || res.NetRetracted != 1 || db.Relation("w").Contains(storage.Tuple{"1"}) {
		t.Fatalf("w(1) must go with its last derivation: %v (%d net)", rec.lost, res.NetRetracted)
	}
}

// TestApplyUpdatesBaselineFacts: facts given for a derived predicate are
// one more rule over a base relation holding them (the form ivm gives a
// view's given facts), so deleting a rule derivation of the same tuple
// keeps it, and nothing else is kept.
func TestApplyUpdatesBaselineFacts(t *testing.T) {
	// Flat shape.
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a"})
	base.Insert("vg", storage.Tuple{"a"}) // also rule-derivable
	base.Insert("vg", storage.Tuple{"s"}) // given only
	prog := newProgram(RuleFromQuery(mustQ("v(X) :- r(X)")), RuleFromQuery(mustQ("v(X) :- vg(X)")))
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := cp.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.ApplyUpdatesCtx(context.Background(), db, nil, map[string][]storage.Tuple{"r": {{"a"}}}, Limits{}); err != nil {
		t.Fatal(err)
	}
	for _, tup := range []storage.Tuple{{"a"}, {"s"}} {
		if !db.Relation("v").Contains(tup) {
			t.Fatalf("given fact v%v lost to a rule-support deletion", tup)
		}
	}

	// Recursive shape: the given fact is kept, and the closure it seeds
	// stays exact.
	base2 := storage.NewDatabase()
	base2.Insert("e", storage.Tuple{"a", "b"})
	base2.Insert("e", storage.Tuple{"y", "z"})
	base2.Insert("tcg", storage.Tuple{"x", "y"})
	prog2 := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Y) :- tcg(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp2, err := CompileProgramIVM(prog2, nil)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := cp2.Eval(base2)
	if err != nil {
		t.Fatal(err)
	}
	before2 := db2.Clone()
	res, err := cp2.ApplyUpdatesCtx(context.Background(), db2, nil, map[string][]storage.Tuple{"e": {{"a", "b"}}}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Relation("tc").Contains(storage.Tuple{"a", "b"}) {
		t.Fatal("tc(a,b) must be retracted with its only edge")
	}
	if !db2.Relation("tc").Contains(storage.Tuple{"x", "y"}) {
		t.Fatalf("given fact tc(x,y) must survive: retracted=%v", batchRecord(t, res, before2, db2).lost)
	}
	if _, err := cp2.ApplyUpdatesCtx(context.Background(), db2, nil, map[string][]storage.Tuple{"e": {{"y", "z"}}}, Limits{}); err != nil {
		t.Fatal(err)
	}
	base2.Remove("e", storage.Tuple{"a", "b"})
	base2.Remove("e", storage.Tuple{"y", "z"})
	want, err := prog2.EvalInterp(base2)
	if err != nil {
		t.Fatal(err)
	}
	diffDatabases(t, "given fact under recursion", db2, want)
}

// TestEvalRefusesBaseNamedLikeDerived: a maintenance program does not
// seed a derived predicate from a same-named base relation — deletions
// could not tell those facts from derived ones — while a plain program
// still does.
func TestEvalRefusesBaseNamedLikeDerived(t *testing.T) {
	prog := newProgram(RuleFromQuery(mustQ("v(X) :- r(X)")))
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a"})
	base.Insert("v", storage.Tuple{"s"})
	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Eval(base); err == nil {
		t.Fatal("maintenance program accepted a base relation named like its derived predicate")
	}
	plain, err := CompileProgram(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := plain.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("v").Len() != 2 {
		t.Fatalf("plain program: v = %v, want the base fact and the derived one", db.Relation("v").Tuples())
	}
}

// TestApplyUpdatesDRedRederive pins the survivor case DRed exists for:
// over-deletion marks tuples that keep an alternative derivation, and the
// re-derive pass must restore them.
func TestApplyUpdatesDRedRederive(t *testing.T) {
	base := storage.NewDatabase()
	// Two paths a→c: direct edge and via b. Deleting a→c keeps tc(a,c).
	base.Insert("e", storage.Tuple{"a", "b"})
	base.Insert("e", storage.Tuple{"b", "c"})
	base.Insert("e", storage.Tuple{"a", "c"})
	base.Insert("e", storage.Tuple{"c", "d"})
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
	probeColumns(db.Relation("tc"))
	before := db.Clone()
	res, err := cp.ApplyUpdatesCtx(context.Background(), db, nil, map[string][]storage.Tuple{"e": {{"a", "c"}}}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	rec := batchRecord(t, res, before, db)
	// tc(a,c) and tc(a,d) survive via b; nothing else is lost.
	for _, tup := range []storage.Tuple{{"a", "c"}, {"a", "d"}, {"a", "b"}, {"b", "c"}, {"c", "d"}, {"b", "d"}} {
		if !db.Relation("tc").Contains(tup) {
			t.Fatalf("tc%v lost despite a surviving derivation; retracted=%v", tup, rec.lost)
		}
	}
	if len(rec.lost["tc"]) != 0 || res.NetRetracted != 0 {
		t.Fatalf("no tc tuple should be retracted, got %v (%d net)", rec.lost["tc"], res.NetRetracted)
	}
	// The journal holds both survivors as over-deleted and stored again.
	for _, tup := range []storage.Tuple{{"a", "c"}, {"a", "d"}} {
		if !containsTuple(rec.removed["tc"], tup) || !containsTuple(rec.stored["tc"], tup) {
			t.Fatalf("survivor tc%v is not journaled as removed and stored again: removed %v, stored %v", tup, rec.removed["tc"], rec.stored["tc"])
		}
	}
	assertServed(t, db.Relation("tc"))

	// Now cut the alternative path too: the downstream closure collapses.
	_, err = cp.ApplyUpdatesCtx(context.Background(), db, nil, map[string][]storage.Tuple{"e": {{"a", "b"}}}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	shadow := storage.NewDatabase()
	shadow.Insert("e", storage.Tuple{"b", "c"})
	shadow.Insert("e", storage.Tuple{"c", "d"})
	want, err := prog.EvalInterp(shadow)
	if err != nil {
		t.Fatal(err)
	}
	diffDatabases(t, "post-collapse closure", db, want)
}

// TestApplyUpdatesErrors covers the rejection and atomicity contract:
// invalid batches fail before mutation, failing batches roll back fully.
func TestApplyUpdatesErrors(t *testing.T) {
	prog := newProgram(RuleFromQuery(mustQ("v(X) :- r(X,Y)")))
	plain, err := CompileProgram(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.ApplyUpdatesCtx(context.Background(), storage.NewDatabase(), nil, nil, Limits{}); err != ErrNotMaintenance {
		t.Fatalf("non-IVM program: err = %v, want ErrNotMaintenance", err)
	}

	cp, err := CompileProgramIVM(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "b"})
	db, err := cp.Eval(base)
	if err != nil {
		t.Fatal(err)
	}
	// Deleting from the derived relation is rejected.
	if _, err := cp.ApplyUpdatesCtx(context.Background(), db, nil, map[string][]storage.Tuple{"v": {{"a"}}}, Limits{}); err == nil {
		t.Fatal("delete from derived relation accepted")
	}
	// Arity mismatch on the delete side fails before the insert side runs.
	_, err = cp.ApplyUpdatesCtx(context.Background(), db,
		map[string][]storage.Tuple{"r": {{"c", "d"}}},
		map[string][]storage.Tuple{"r": {{"oops"}}}, Limits{})
	if err == nil {
		t.Fatal("wrong-arity delete accepted")
	}
	var ae *storage.ArityError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *storage.ArityError", err)
	}
	if db.Relation("r").Len() != 1 || db.Relation("r").Contains(storage.Tuple{"c", "d"}) {
		t.Fatal("failed batch mutated the database")
	}
	// Deleting absent tuples and from absent relations is a clean no-op.
	before := db.Clone()
	res, err := cp.ApplyUpdatesCtx(context.Background(), db, nil, map[string][]storage.Tuple{
		"r":       {{"z", "z"}},
		"missing": {{"1"}},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := batchRecord(t, res, before, db); len(res.BaseDeleted) != 0 || len(rec.removed) != 0 || len(rec.stored) != 0 || res.NetRetracted != 0 {
		t.Fatalf("no-op delete batch reported changes: %+v, journaled %+v", res, rec)
	}
}

// TestApplyUpdatesCancelRollback: a canceled or budget-tripped batch must
// leave the database bit-identical to its pre-batch state — deletions
// re-inserted, insertions truncated, batch-created relations dropped.
func TestApplyUpdatesCancelRollback(t *testing.T) {
	for _, recursive := range []bool{false, true} {
		base := storage.NewDatabase()
		for i := 0; i < 20; i++ {
			base.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
		}
		var prog *Program
		if recursive {
			prog = newProgram(
				RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
				RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
			)
		} else {
			prog = newProgram(RuleFromQuery(mustQ("v(X,Z) :- e(X,Y), e(Y,Z)")))
		}
		cp, err := CompileProgramIVM(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		db, err := cp.Eval(base)
		if err != nil {
			t.Fatal(err)
		}
		snapshot := db.Clone()

		// Pre-canceled context: rejected before any work.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := cp.ApplyUpdatesCtx(ctx, db, nil, map[string][]storage.Tuple{"e": {{"0", "1"}}}, Limits{}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("recursive=%v: err = %v, want ErrCanceled", recursive, err)
		}
		diffDatabases(t, "canceled batch", db, snapshot)

		// A tripped budget mid-batch rolls everything back: the
		// over-deleted tuples alone pass the cap, so DRed trips it
		// mid-retraction, before the insert side runs.
		ins := map[string][]storage.Tuple{"e": {{"20", "21"}, {"21", "22"}}}
		del := map[string][]storage.Tuple{"e": {{"0", "1"}, {"5", "6"}}}
		_, err = cp.ApplyUpdatesCtx(context.Background(), db, ins, del, Limits{MaxDerived: 1})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("recursive=%v: err = %v, want ErrBudgetExceeded", recursive, err)
		}
		diffDatabases(t, fmt.Sprintf("budget-tripped batch (recursive=%v)", recursive), db, snapshot)

		// The same batch with room succeeds and stays consistent.
		if _, err := cp.ApplyUpdatesCtx(context.Background(), db, ins, del, Limits{}); err != nil {
			t.Fatalf("recursive=%v: %v", recursive, err)
		}
		shadow := base.Clone()
		shadow.Remove("e", storage.Tuple{"0", "1"})
		shadow.Remove("e", storage.Tuple{"5", "6"})
		shadow.Insert("e", storage.Tuple{"20", "21"})
		shadow.Insert("e", storage.Tuple{"21", "22"})
		want, err := prog.EvalInterp(shadow)
		if err != nil {
			t.Fatal(err)
		}
		diffDatabases(t, fmt.Sprintf("post-rollback batch (recursive=%v)", recursive), db, want)
	}
}

// TestApplyUpdatesKeyCollidingTuples: two base tuples whose Tuple.Key
// strings coincide, ("a\x1fb","c") and ("a","b\x1fc"), are different
// tuples to the fixpoint and to every maintenance pass, in a flat program
// and in a recursive one. Each relation must equal the interpreter's after
// materialization, after deleting one of the pair, and after a batch that
// inserts it back while deleting the other.
func TestApplyUpdatesKeyCollidingTuples(t *testing.T) {
	a, b := storage.Tuple{"a\x1fb", "c"}, storage.Tuple{"a", "b\x1fc"}
	progs := map[string]*Program{
		"flat": newProgram(RuleFromQuery(mustQ("v(X,Y) :- r(X,Y)"))),
		"recursive": newProgram(
			RuleFromQuery(mustQ("tc(X,Y) :- r(X,Y)")),
			RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), r(Y,Z)")),
		),
	}
	for name, prog := range progs {
		shadow := storage.NewDatabase()
		for _, tup := range []storage.Tuple{a, b, {"c", "d"}, {"b\x1fc", "e"}} {
			shadow.Insert("r", tup)
		}
		cp, err := CompileProgramIVM(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		db, err := cp.Eval(shadow)
		if err != nil {
			t.Fatal(err)
		}
		check := func(step string) {
			t.Helper()
			want, err := prog.EvalInterp(shadow)
			if err != nil {
				t.Fatal(err)
			}
			diffDatabases(t, name+": "+step, db, want)
		}
		check("materialized")
		if n := db.Relation(prog.Rules[0].HeadPred).Len(); n < 4 {
			t.Fatalf("%s: %d derived tuples, want at least 4", name, n)
		}

		if _, err := cp.ApplyUpdatesCtx(context.Background(), db, nil, map[string][]storage.Tuple{"r": {a}}, Limits{}); err != nil {
			t.Fatal(err)
		}
		shadow.Remove("r", a)
		check("one of the pair deleted")

		if _, err := cp.ApplyUpdatesCtx(context.Background(), db, map[string][]storage.Tuple{"r": {a}}, map[string][]storage.Tuple{"r": {b}}, Limits{}); err != nil {
			t.Fatal(err)
		}
		shadow.Remove("r", b)
		shadow.Insert("r", a)
		check("the pair swapped")
	}
}
