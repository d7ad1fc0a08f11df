package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

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
// absent tuples and missing relations), the insert mark, inserts into old
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
			tup := Tuple{val(), val()}
			if rel := db.Relation(pred); rel != nil && rel.Len() > 0 && rng.Intn(3) > 0 {
				tup = rel.Tuples()[rng.Intn(rel.Len())] // present, usually not the tail
			}
			if j.Remove(pred, tup) {
				removed++
			}
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

func TestJournalRemoveAfterMarkPanics(t *testing.T) {
	db := NewDatabase()
	db.Insert("r", Tuple{"a"})
	j := NewJournal(db)
	j.MarkInserts()
	defer func() {
		if recover() == nil {
			t.Fatal("Remove after MarkInserts did not panic")
		}
	}()
	j.Remove("r", Tuple{"a"})
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
