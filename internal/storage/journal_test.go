package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// Remove is RemoveAll of one tuple, reporting whether it was present: the
// single-tuple form the tests mix with lists.
func (j *Journal) Remove(pred string, t Tuple) bool {
	return j.RemoveAll(pred, []Tuple{t}) == 1
}

// dbState captures what a rollback must restore: per relation, the sorted
// tuple keys and, for every built column index, the sorted keys Lookup
// returns per stored value. checkConsistent pins that an index holds no
// other value.
func dbState(db *Database) string {
	var out []string
	for _, pred := range db.Predicates() {
		rel := db.Relation(pred)
		keys := make([]string, 0, rel.Len())
		for _, t := range rel.Tuples() {
			keys = append(keys, t.Key())
		}
		sort.Strings(keys)
		out = append(out, fmt.Sprintf("%s/%d frozen=%v %q", pred, rel.Arity(), rel.Frozen(), keys))
		for col := 0; col < rel.Arity(); col++ {
			if _, ok := rel.ColumnIndex(col); !ok {
				continue
			}
			var vals []string
			for _, t := range rel.Tuples() {
				vals = append(vals, t[col])
			}
			sort.Strings(vals)
			for _, v := range slices.Compact(vals) {
				var hits []string
				for _, t := range rel.Lookup(col, v) {
					hits = append(hits, t.Key())
				}
				sort.Strings(hits)
				out = append(out, fmt.Sprintf("  %s[%d=%q] %q", pred, col, v, hits))
			}
		}
	}
	return fmt.Sprint(out)
}

// TestJournalRollbackProperty drives random batches — journaled removals
// (from the middle of a relation, so the tail swap-fills the hole, and of
// absent tuples and missing relations), one at a time (Remove) and by lists
// that may repeat a tuple (RemoveAll), the insert mark, inserts into old
// relations and into relations the batch creates — and checks that Rollback
// restores every tuple set and every built column index.
func TestJournalRollbackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x10A7))
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(6)) }
	for trial := 0; trial < 300; trial++ {
		db := NewDatabase()
		for _, pred := range []string{"a", "b", "c"} {
			rel, _ := db.Ensure(pred, 2)
			for i := rng.Intn(12); i > 0; i-- {
				rel.Insert(Tuple{val(), val()})
			}
			switch rng.Intn(3) {
			case 0:
				rel.BuildIndexes()
			case 1:
				rel.BuildColumnIndex(rng.Intn(2))
			}
		}
		before := dbState(db)

		j := NewJournal(db)
		removed := 0
		for i := rng.Intn(8); i > 0; i-- {
			pred := []string{"a", "b", "c", "missing"}[rng.Intn(4)]
			pick := func() Tuple {
				if rel := db.Relation(pred); rel != nil && rel.Len() > 0 && rng.Intn(3) > 0 {
					return rel.Tuples()[rng.Intn(rel.Len())] // present, usually not the tail
				}
				return Tuple{val(), val()}
			}
			if rng.Intn(2) == 0 {
				if j.Remove(pred, pick()) {
					removed++
				}
				continue
			}
			// A list of up to five, possibly empty, that may name a tuple
			// twice: the second removal finds it gone.
			var ts []Tuple
			for k := rng.Intn(6); k > 0; k-- {
				if len(ts) > 0 && rng.Intn(4) == 0 {
					ts = append(ts, ts[rng.Intn(len(ts))])
				} else {
					ts = append(ts, pick())
				}
			}
			before := 0
			if rel := db.Relation(pred); rel != nil {
				before = rel.Len()
			}
			n := j.RemoveAll(pred, ts)
			if rel := db.Relation(pred); rel != nil && rel.Len() != before-n {
				t.Fatalf("trial %d: RemoveAll reported %d removal(s), relation %s went from %d to %d tuples", trial, n, pred, before, rel.Len())
			}
			removed += n
		}
		if rng.Intn(4) > 0 {
			j.MarkInserts()
			for i := rng.Intn(8); i > 0; i-- {
				pred := []string{"a", "b", "c", "new1", "new2"}[rng.Intn(5)]
				created := db.Relation(pred) == nil
				rel, _ := db.Ensure(pred, 2)
				rel.Insert(Tuple{val(), val()})
				if created && rng.Intn(2) == 0 {
					rel.BuildIndexes() // what the engine does to relations a publish creates
				}
			}
		}
		for _, pred := range db.Predicates() {
			checkConsistent(t, db.Relation(pred))
		}

		j.Rollback()
		if after := dbState(db); after != before {
			t.Fatalf("trial %d (%d removal(s)): rollback did not restore the database\nbefore: %s\nafter:  %s", trial, removed, before, after)
		}
		for _, pred := range db.Predicates() {
			checkConsistent(t, db.Relation(pred))
		}
	}
}

// TestJournalRemoveAfterMarkPanics: removing after MarkInserts panics,
// through Remove and through RemoveAll, even of nothing.
func TestJournalRemoveAfterMarkPanics(t *testing.T) {
	for name, remove := range map[string]func(*Journal){
		"Remove":            func(j *Journal) { j.Remove("r", Tuple{"a"}) },
		"RemoveAll":         func(j *Journal) { j.RemoveAll("r", []Tuple{{"a"}}) },
		"RemoveAll nothing": func(j *Journal) { j.RemoveAll("r", nil) },
	} {
		db := NewDatabase()
		db.Insert("r", Tuple{"a"})
		j := NewJournal(db)
		j.MarkInserts()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after MarkInserts did not panic", name)
				}
			}()
			remove(j)
		}()
	}
}

// TestJournalRestoresStoredTuple: a rollback puts back the stored tuple the
// removal took out, not the caller's tuple that named it, so a caller that
// writes its tuple afterwards cannot reach the database, and the rollback
// allocates no tuple.
func TestJournalRestoresStoredTuple(t *testing.T) {
	db := NewDatabase()
	db.Insert("r", Tuple{"a", "b"})
	stored := db.Relation("r").Tuples()[0]
	caller := Tuple{"a", "b"}
	j := NewJournal(db)
	if !j.Remove("r", caller) {
		t.Fatal("Remove of a present tuple reported absent")
	}
	caller[0], caller[1] = "x", "y"
	j.Rollback()
	got := db.Relation("r").Tuples()
	if len(got) != 1 || !slices.Equal(got[0], Tuple{"a", "b"}) {
		t.Fatalf("after rollback r = %q, want [[a b]]", got)
	}
	if unsafe.SliceData(got[0]) != unsafe.SliceData(stored) {
		t.Fatal("rollback stored a copy, not the tuple it removed")
	}
}

// checkReset: a journal NewJournal just returned refers to nothing of the
// batch before — no entry of its kept removal log, no key of its marks map
// or its base lists' maps, no row of its kept arena — and is not marked.
func checkReset(t *testing.T, db *Database, j *Journal) {
	t.Helper()
	if j != &db.journal {
		t.Fatal("NewJournal returned a journal other than the database's own")
	}
	if j.marked {
		t.Fatal("reset journal is still marked")
	}
	if len(j.removed) != 0 || len(j.marks) != 0 {
		t.Fatalf("reset journal holds %d removal(s) and %d mark(s)", len(j.removed), len(j.marks))
	}
	for i, r := range j.removed[:cap(j.removed)] {
		if r.pred != "" || r.t != nil {
			t.Fatalf("kept removal log slot %d still holds %s%q of an earlier batch", i, r.pred, r.t)
		}
	}
	if len(j.inserted) != 0 || len(j.deleted) != 0 {
		t.Fatalf("reset journal lists %d inserted and %d deleted predicate(s)", len(j.inserted), len(j.deleted))
	}
	for i, r := range j.deletedRows[:cap(j.deletedRows)] {
		if r != nil {
			t.Fatalf("kept arena slot %d still holds %q of an earlier batch", i, r)
		}
	}
}

// TestJournalReusedAcrossBatches applies random batches through one
// database's journal, rolling one of them back: every batch starts from a
// journal that refers to nothing of the batch before, and the rolled-back
// batch leaves exactly the state it started from — the same relations and
// tuples (Database.Equal) and the same column indexes (dbState) — however
// many batches the journal served before it and after it.
//
// After every batch its journal is also replayed onto a clone of the
// pre-batch database, through the clone's own journal: that gives the
// post-batch database, column indexes included, and the clone's journal
// rolls the replay back. A second replay refuses one predicate, which
// then keeps its pre-batch relation on the clone. The batches cover a
// relation the batch created (built, sometimes), a row removed and put
// back by the same batch, and a refused predicate the batch changed.
func TestJournalReusedAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7E5E))
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(8)) }
	var created, readopted, refused int
	for trial := 0; trial < 200; trial++ {
		db := NewDatabase()
		for _, pred := range []string{"a", "b", "c"} {
			rel, _ := db.Ensure(pred, 2)
			for i := rng.Intn(16); i > 0; i-- {
				rel.Insert(Tuple{val(), val()})
			}
			if rng.Intn(2) == 0 {
				rel.BuildIndexes()
			}
		}
		n := 2 + rng.Intn(5)
		k := rng.Intn(n)
		for batch := 0; batch < n; batch++ {
			before, snap := dbState(db), db.Clone()
			j := NewJournal(db)
			checkReset(t, db, j)
			var gone []Tuple
			for i := 1 + rng.Intn(4); i > 0; i-- {
				pred := []string{"a", "b", "c", fmt.Sprintf("new%d", batch-1)}[rng.Intn(4)]
				var ts []Tuple
				if rel := db.Relation(pred); rel != nil {
					for m := rng.Intn(4); m > 0 && rel.Len() > 0; m-- {
						ts = append(ts, rel.Tuples()[rng.Intn(rel.Len())])
					}
				}
				if j.RemoveAll(pred, ts) > 0 && pred == "a" {
					gone = append(gone, ts...)
				}
			}
			// The base lists, as a batch fills them: its deletions of a as a
			// window onto the arena, its inserts of a as the relation's tail.
			inserted, deleted, arena := j.BaseLists(len(gone))
			if len(gone) > 0 {
				deleted["a"] = append(arena, gone...)
			}
			mark := db.Relation("a").Len()
			j.MarkInserts()
			newPred := fmt.Sprintf("new%d", batch)
			for i := rng.Intn(6); i > 0; i-- {
				pred := []string{"a", "b", "c", newPred}[rng.Intn(4)]
				rel, _ := db.Ensure(pred, 2)
				rel.Insert(Tuple{val(), val()})
			}
			if len(gone) > 0 && rng.Intn(2) == 0 {
				if db.Relation("a").Adopt(gone[0]) {
					readopted++
				}
			}
			if n := db.Relation("a").Len(); n > mark {
				inserted["a"] = db.Relation("a").Tuples()[mark:n:n]
			}
			if rel := db.Relation(newPred); rel != nil {
				created++
				if rng.Intn(2) == 0 {
					rel.BuildIndexes()
				}
			}

			mirror := snap.Clone()
			mj := NewJournal(mirror)
			if err := j.Replay(mj, func(string) bool { return true }); err != nil {
				t.Fatalf("trial %d batch %d: replay: %v", trial, batch, err)
			}
			if !mirror.Equal(db) || dbState(mirror) != dbState(db) {
				t.Fatalf("trial %d batch %d: replay onto the pre-batch clone differs from the batch's result\nwant: %s\ngot:  %s", trial, batch, dbState(db), dbState(mirror))
			}
			for _, pred := range mirror.Predicates() {
				checkConsistent(t, mirror.Relation(pred))
			}
			mj.Rollback()
			if !mirror.Equal(snap) || dbState(mirror) != before {
				t.Fatalf("trial %d batch %d: the mirror's journal did not roll the replay back\nbefore: %s\nafter:  %s", trial, batch, before, dbState(mirror))
			}

			skip := []string{"a", "b", "c", newPred}[rng.Intn(4)]
			want := db.Clone()
			want.Drop(skip)
			want.Bind(snap, skip)
			if dbState(want) != dbState(db) {
				refused++
			}
			partial := snap.Clone()
			if err := j.Replay(NewJournal(partial), func(pred string) bool { return pred != skip }); err != nil {
				t.Fatalf("trial %d batch %d: filtered replay: %v", trial, batch, err)
			}
			if !partial.Equal(want) || dbState(partial) != dbState(want) {
				t.Fatalf("trial %d batch %d: replay refusing %s\nwant: %s\ngot:  %s", trial, batch, skip, dbState(want), dbState(partial))
			}

			if batch != k {
				continue
			}
			j.Rollback()
			if !db.Equal(snap) || dbState(db) != before {
				t.Fatalf("trial %d: rolling back batch %d of %d did not restore the database\nbefore: %s\nafter:  %s", trial, batch, n, before, dbState(db))
			}
			for _, pred := range db.Predicates() {
				checkConsistent(t, db.Relation(pred))
			}
		}
		checkReset(t, db, NewJournal(db))
	}
	if created == 0 || readopted == 0 || refused == 0 {
		t.Fatalf("batches created %d relation(s), put back %d removed row(s), changed %d refused predicate(s): each must happen", created, readopted, refused)
	}
}

// TestJournalKeepsOnlyBoundedLog: a reset keeps a removal log, a marks
// map and a base lists' arena within maxKeptRemovals and maxKeptMarks for
// the next batch, which then journals without allocating, and drops ones
// grown past them.
func TestJournalKeepsOnlyBoundedLog(t *testing.T) {
	db := NewDatabase()
	rel, _ := db.Ensure("r", 1)
	for i := 0; i <= maxKeptRemovals; i++ {
		rel.Insert(Tuple{fmt.Sprint(i)})
	}
	small := slices.Clone(rel.Tuples()[:64])
	batch := func() {
		j := NewJournal(db)
		j.RemoveAll("r", small)
		j.MarkInserts()
		j.Rollback()
	}
	batch()
	if raceEnabled {
		t.Log("allocation count not checked under the race detector")
	} else if n := testing.AllocsPerRun(20, batch); n != 0 {
		t.Errorf("a batch through a kept journal allocated %.0f objects", n)
	}
	if j := NewJournal(db); cap(j.removed) == 0 || j.marks == nil {
		t.Fatal("reset dropped a log and marks within the bounds")
	}

	j := NewJournal(db)
	j.RemoveAll("r", slices.Clone(rel.Tuples()))
	j.Rollback()
	if j = NewJournal(db); j.removed != nil {
		t.Fatalf("reset kept a removal log of capacity %d past the bound %d", cap(j.removed), maxKeptRemovals)
	}
	for i := 0; i <= maxKeptMarks; i++ {
		db.Ensure(fmt.Sprintf("m%d", i), 1)
	}
	j.MarkInserts()
	j.Rollback()
	if j = NewJournal(db); j.marks != nil {
		t.Fatalf("reset kept a marks map past the bound %d", maxKeptMarks)
	}
	j.BaseLists(64)
	if j = NewJournal(db); cap(j.deletedRows) != 64 || j.deleted == nil {
		t.Fatal("reset dropped base lists within the bounds")
	}
	j.BaseLists(maxKeptRemovals + 1)
	if j = NewJournal(db); j.deletedRows != nil {
		t.Fatalf("reset kept an arena of capacity %d past the bound %d", cap(j.deletedRows), maxKeptRemovals)
	}
	if rel.Len() != maxKeptRemovals+1 {
		t.Fatalf("r holds %d tuples after rolling back, want %d", rel.Len(), maxKeptRemovals+1)
	}
}
