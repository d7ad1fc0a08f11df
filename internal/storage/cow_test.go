package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// cowBase is the database the copy-on-write tests clone: r served with
// both columns probed, s with only column 0 built, t with no index.
func cowBase() *Database {
	db := NewDatabase()
	for i := 0; i < 200; i++ {
		db.Insert("r", Tuple{fmt.Sprint("a", i%17), fmt.Sprint("b", i)})
		db.Insert("s", Tuple{fmt.Sprint("b", i), fmt.Sprint("c", i%5)})
		db.Insert("t", Tuple{fmt.Sprint("c", i%5)})
	}
	db.Relation("r").BuildIndexes()
	db.Relation("r").ProbeIndex(0)
	db.Relation("r").ProbeIndex(1)
	db.Relation("s").BuildColumnIndex(0)
	return db
}

// rebuild copies db tuple by tuple into a database that shares nothing with
// it — every tuple cloned, in the same order, the same relations served and
// the same columns built.
func rebuild(db *Database) *Database {
	out := NewDatabase()
	for _, pred := range db.Predicates() {
		rel := db.Relation(pred)
		nr, _ := out.Ensure(pred, rel.Arity())
		for _, t := range rel.Tuples() {
			nr.Insert(t)
		}
		if rel.served {
			nr.BuildIndexes()
		}
		for col := 0; col < rel.Arity(); col++ {
			if _, ok := rel.ColumnIndex(col); ok {
				nr.BuildColumnIndex(col)
			}
		}
	}
	return out
}

// tablesOfDB is tablesOf for every relation of db.
func tablesOfDB(db *Database) string {
	s := ""
	for _, pred := range db.Predicates() {
		s += pred + ": " + tablesOf(db.Relation(pred)) + "\n"
	}
	return s
}

// cowBatch journals one batch against db: removals from r and s, then
// inserts into r, s and a relation the batch creates.
func cowBatch(db *Database) *Journal {
	j := NewJournal(db)
	j.RemoveAll("r", []Tuple{{"a3", "b3"}, {"a5", "b22"}, {"a0", "b0"}})
	j.RemoveAll("s", []Tuple{{"b7", "c2"}})
	j.MarkInserts()
	db.Insert("r", Tuple{"a3", "new"})
	db.Insert("s", Tuple{"new", "c9"})
	db.Insert("u", Tuple{"x", "y"})
	return j
}

// TestCloneCopiesOnWrite: for every writer of a relation — and for a
// journal's removals, rollback and replay — a write to a clone leaves its
// source as it was, and a write to the source then leaves the clone as it
// was: the other side stays Equal to a copy rebuilt tuple by tuple before
// the write, with the same column indexes answering the same lookups, and
// reads the very tables it read before. Each written side ends as the same
// write leaves a database that never shared.
func TestCloneCopiesOnWrite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(db *Database)
	}{
		{"Insert", func(db *Database) { db.Relation("r").Insert(Tuple{"a1", "fresh"}) }},
		{"InsertPresent", func(db *Database) { db.Relation("r").Insert(Tuple{"a1", "b1"}) }},
		{"Adopt", func(db *Database) { db.Relation("s").Adopt(Tuple{"fresh", "c1"}) }},
		{"Remove", func(db *Database) { db.Relation("r").Remove(Tuple{"a4", "b4"}) }},
		{"RemoveAbsent", func(db *Database) { db.Relation("r").Remove(Tuple{"a4", "none"}) }},
		{"TruncateTo", func(db *Database) { db.Relation("s").TruncateTo(150) }},
		{"Grow", func(db *Database) { db.Relation("r").Grow(1000) }},
		{"BuildColumnIndex", func(db *Database) { db.Relation("s").BuildColumnIndex(1) }},
		{"Lookup", func(db *Database) { db.Relation("t").Lookup(0, "c1") }},
		{"BuildIndexes", func(db *Database) { db.BuildIndexes() }},
		{"Journal.RemoveAll", func(db *Database) {
			NewJournal(db).RemoveAll("r", []Tuple{{"a1", "b1"}, {"a2", "b2"}, {"a1", "none"}})
		}},
		{"Journal.Rollback", func(db *Database) { cowBatch(db).Rollback() }},
		{"Journal.Replay", func(db *Database) {
			donor := rebuild(db)
			if err := cowBatch(donor).Replay(NewJournal(db), func(string) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := cowBase()
			want := rebuild(src)
			tc.write(want)
			cl := src.Clone()
			for _, step := range []struct {
				name            string
				written, shared *Database
			}{{"clone", cl, src}, {"source", src, cl}} {
				snap, tables := rebuild(step.shared), tablesOfDB(step.shared)
				tc.write(step.written)
				if !step.shared.Equal(snap) || dbState(step.shared) != dbState(snap) {
					t.Fatalf("writing the %s changed the other side:\nwant %s\ngot  %s", step.name, dbState(snap), dbState(step.shared))
				}
				if got := tablesOfDB(step.shared); got != tables {
					t.Fatalf("writing the %s changed the other side's tables:\nbefore %s\nafter  %s", step.name, tables, got)
				}
				if !step.written.Equal(want) || dbState(step.written) != dbState(want) {
					t.Fatalf("the written %s differs from an unshared database written alike:\nwant %s\ngot  %s", step.name, dbState(want), dbState(step.written))
				}
				for _, db := range []*Database{src, cl} {
					for _, pred := range db.Predicates() {
						checkConsistent(t, db.Relation(pred))
					}
				}
			}
		})
	}
}

// TestCloneSharesUntilWritten: a clone holds its source's tables until a
// write, and only what the write changes stops being shared — an insert
// that changes nothing copies nothing, and building a column index copies
// only the list of indexes, not the tuple array or the set index.
func TestCloneSharesUntilWritten(t *testing.T) {
	src := cowBase()
	cl := src.Clone()
	for _, pred := range src.Predicates() {
		checkSharesTables(t, src.Relation(pred), cl.Relation(pred))
	}
	r, cr := src.Relation("r"), cl.Relation("r")
	if cr.Insert(Tuple{"a1", "b1"}) || cr.Remove(Tuple{"a1", "none"}) || tablesOf(cr) != tablesOf(r) {
		t.Fatal("a write that changed nothing copied the tables")
	}
	s, cs := src.Relation("s"), cl.Relation("s")
	cs.BuildColumnIndex(1)
	if &cs.tuples[0] != &s.tuples[0] || &cs.set.slots[0] != &s.set.slots[0] || cs.index(0) != s.index(0) {
		t.Fatal("building a column index copied more than the list of indexes")
	}
	if _, ok := s.ColumnIndex(1); ok {
		t.Fatal("building a column index on the clone built it on the source")
	}
	cr.Insert(Tuple{"a1", "fresh"})
	if &cr.tuples[0] == &r.tuples[0] || cr.index(0) == r.index(0) {
		t.Fatal("an insert into a shared relation did not copy its tables")
	}
}

// TestLastHolderWritesInPlace: tables are copied by every holder that
// writes them but the last, which writes them in place. Of two relations
// sharing tables the first to be written copies and the second does not;
// of three, the first two copy. Each write leaves the others' contents as
// they were.
func TestLastHolderWritesInPlace(t *testing.T) {
	// addrs names the arrays a relation writes, by address only: an in-place
	// write changes lengths, never addresses.
	addrs := func(r *Relation) string {
		s := fmt.Sprintf("%p %p", unsafe.SliceData(r.tuples), unsafe.SliceData(r.set.slots))
		for col := range r.indexes {
			x := r.index(col)
			s += fmt.Sprintf(" %p", x)
		}
		return s
	}
	for holders := 2; holders <= 3; holders++ {
		src := cowBase()
		dbs := []*Database{src}
		for len(dbs) < holders {
			dbs = append(dbs, src.Clone())
		}
		shared := addrs(src.Relation("r"))
		for i, db := range dbs {
			r := db.Relation("r")
			if addrs(r) != shared {
				t.Fatalf("%d holders: holder %d no longer holds the shared tables before its write", holders, i+1)
			}
			others := make([]string, len(dbs))
			for j, o := range dbs {
				others[j] = dbState(o)
			}
			if !r.Remove(Tuple{"a4", "b4"}) {
				t.Fatalf("%d holders, holder %d: r(a4,b4) was not removed", holders, i+1)
			}
			if copied, last := addrs(r) != shared, i == len(dbs)-1; copied == last {
				t.Fatalf("%d holders: holder %d of %d copied %v", holders, i+1, holders, copied)
			}
			for j, o := range dbs {
				if j != i && dbState(o) != others[j] {
					t.Fatalf("%d holders: writing holder %d changed holder %d", holders, i+1, j+1)
				}
			}
		}
	}
}

// TestCloneWriteRace runs each writer as the first write to one side of a
// clone while readers probe the other side's column indexes and set
// indexes, each way round: under the race detector a writer that writes a
// shared table instead of copying it first is a data race.
func TestCloneWriteRace(t *testing.T) {
	for _, w := range []struct {
		name  string
		write func(db *Database)
	}{
		{"Insert", func(db *Database) { db.Relation("r").Insert(Tuple{"a1", "fresh"}) }},
		{"Adopt", func(db *Database) { db.Relation("s").Adopt(Tuple{"fresh", "c1"}) }},
		{"Remove", func(db *Database) { db.Relation("r").Remove(Tuple{"a4", "b4"}) }},
		{"TruncateTo", func(db *Database) { db.Relation("s").TruncateTo(150) }},
		{"Grow", func(db *Database) { db.Relation("r").Grow(1000) }},
		{"BuildColumnIndex", func(db *Database) { db.Relation("s").BuildColumnIndex(1) }},
		{"Journal", func(db *Database) { cowBatch(db).Rollback() }},
	} {
		for _, writeClone := range []bool{true, false} {
			src := cowBase()
			cl := src.Clone()
			read, write := src, cl
			if !writeClone {
				read, write = cl, src
			}
			want := dbState(read)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if err := probeCowBase(read); err != nil {
							t.Errorf("%s: %v", w.name, err)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			w.write(write)
			close(stop)
			wg.Wait()
			if got := dbState(read); got != want {
				t.Fatalf("%s of one side changed the other:\nwant %s\ngot  %s", w.name, want, got)
			}
		}
	}
}

// probeCowBase reads cowBase's r and s through their column 0 indexes and
// their set indexes, reporting an answer other than cowBase's.
func probeCowBase(db *Database) error {
	for _, pred := range []string{"r", "s"} {
		rel := db.Relation(pred)
		x, _ := rel.ProbeIndex(0)
		tuples := rel.Tuples()
		for i := 0; i < 17; i++ {
			n, val := 0, fmt.Sprint("a", i)
			if pred == "s" {
				val = fmt.Sprint("b", i)
			}
			for pos := x.First(tuples, val); pos >= 0; pos = x.Next(pos) {
				n++
			}
			if want := map[bool]int{true: 12 - i/13, false: 1}[pred == "r"]; n != want {
				return fmt.Errorf("%s(%s, _): %d tuples, want %d", pred, val, n, want)
			}
		}
	}
	if !db.Relation("r").Contains(Tuple{"a4", "b4"}) || !db.Relation("s").Contains(Tuple{"b190", "c0"}) {
		return fmt.Errorf("the read side lost a tuple")
	}
	return nil
}

// TestCloneAllocs: cloning a database of 100 000 tuples allocates per
// relation — the database, its map and one header per relation — not per
// tuple, and copies no table.
func TestCloneAllocs(t *testing.T) {
	const rels, n = 8, 100000
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.Insert(fmt.Sprint("r", i%rels), Tuple{fmt.Sprint("a", i), fmt.Sprint("b", i%100)})
	}
	db.BuildIndexes()
	if got, limit := testing.AllocsPerRun(10, func() { db.Clone() }), float64(3+rels); got > limit {
		t.Errorf("Database.Clone of %d relations, %d tuples: %.0f allocs, want at most %.0f", rels, n, got, limit)
	}
}

// TestFirstProbeRace: eight goroutines first-probe the same unbuilt column
// of a served relation through two clones that share its tables, while a
// third clone's first write copies those tables (own). Under the race
// detector nothing races; the column is built once — a second build would
// hand some goroutine an index of its own — every probe gets that one
// index, both sharing clones hold it, and it answers like a scan.
func TestFirstProbeRace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := cowBase()
		src.Relation("s").BuildIndexes() // served, column 0 built, column 1 not
		a, b, w := src.Clone(), src.Clone(), src.Clone()
		got := make([]*ColIndex, 8)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				db := []*Database{a, b}[g%2]
				got[g], _ = db.Relation("s").ProbeIndex(1)
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w.Relation("s").Insert(Tuple{"fresh", "c1"})
		}()
		close(start)
		wg.Wait()
		for g, x := range got {
			if x == nil || x != got[0] {
				t.Fatalf("trial %d: goroutine %d probed index %p, goroutine 0 %p", trial, g, x, got[0])
			}
		}
		for _, db := range []*Database{src, a, b} {
			if x, _ := db.Relation("s").ColumnIndex(1); x != got[0] {
				t.Fatalf("trial %d: a clone sharing the tables holds index %p, the probes built %p", trial, x, got[0])
			}
		}
		rel := a.Relation("s")
		tuples := rel.Tuples()
		for c := 0; c < 5; c++ {
			val := fmt.Sprint("c", c)
			var byIndex, byScan []int
			for pos := got[0].First(tuples, val); pos >= 0; pos = got[0].Next(pos) {
				byIndex = append(byIndex, pos)
			}
			for pos, tu := range tuples {
				if tu[1] == val {
					byScan = append(byScan, pos)
				}
			}
			slices.Sort(byIndex)
			if !slices.Equal(byIndex, byScan) {
				t.Fatalf("trial %d: s(_, %s) by index %v, by scan %v", trial, val, byIndex, byScan)
			}
		}
		if !w.Relation("s").Contains(Tuple{"fresh", "c1"}) || rel.Contains(Tuple{"fresh", "c1"}) {
			t.Fatalf("trial %d: the writing clone's insert is missing or reached a reader", trial)
		}
		checkConsistent(t, w.Relation("s"))
	}
}
