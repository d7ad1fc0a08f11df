package storage

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"unsafe"
)

// TestKeyCollidingTuplesBothKept: two tuples with the same canonical key —
// a value may hold the 0x1f separator — are different tuples. The relation
// keeps both and answers for each on its own through every operation.
func TestKeyCollidingTuplesBothKept(t *testing.T) {
	a, b := Tuple{"a\x1fb", "c"}, Tuple{"a", "b\x1fc"}
	if a.Key() != b.Key() {
		t.Fatal("the pair no longer shares a key")
	}
	r := NewRelation("r", 2)
	if !r.Insert(a) || !r.Insert(b) || r.Len() != 2 {
		t.Fatalf("both tuples must be new: Len = %d", r.Len())
	}
	if r.Insert(a) || r.Insert(b) {
		t.Fatal("a repeat of either tuple reported new")
	}
	checkConsistent(t, r)
	if !r.Contains(a) || !r.Contains(b) {
		t.Fatal("one of the pair is not contained")
	}

	cl := NewDatabase()
	cl.rels["r"] = r
	c := cl.Clone().Relation("r")
	checkConsistent(t, c)
	if !c.Contains(a) || !c.Contains(b) || c.Len() != 2 {
		t.Fatal("the clone lost one of the pair")
	}

	if !r.Remove(a) || !r.Contains(b) || r.Contains(a) || r.Len() != 1 {
		t.Fatal("removing one of the pair disturbed the other")
	}
	checkConsistent(t, r)
	if !r.Contains(b) {
		t.Fatal("the remaining tuple is not contained")
	}
	r.Insert(a)
	r.TruncateTo(1)
	if !r.Contains(b) || r.Contains(a) || r.Len() != 1 {
		t.Fatal("truncating one of the pair disturbed the other")
	}
	checkConsistent(t, r)
	if !r.Remove(b) || r.Contains(a) || r.Contains(b) || r.Len() != 0 {
		t.Fatal("a tuple is still contained with both of the pair gone")
	}
	if !c.Contains(a) || !c.Contains(b) {
		t.Fatal("the clone shares state with its source")
	}
}

// TestSetIndexWrapsAround fills a relation's set index to its half-full
// limit of 16 slots with tuples whose home slots are the last few, so their
// probe chains run off the end of the table and wrap to its start, then
// deletes them in several orders: backward-shift deletion must move entries
// across the wrap and leave every chain unbroken.
func TestSetIndexWrapsAround(t *testing.T) {
	const slots = 16
	var wrap []Tuple
	for i := 0; len(wrap) < slots/2; i++ {
		tu := Tuple{fmt.Sprint("w", i), "x"}
		if hashTuple(tu)%slots >= slots-3 {
			wrap = append(wrap, tu)
		}
	}
	orders := [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {7, 6, 5, 4, 3, 2, 1, 0}, {3, 0, 6, 1, 7, 2, 5, 4}}
	for _, order := range orders {
		r := NewRelation("r", 2)
		for _, tu := range wrap {
			r.Insert(tu)
		}
		if r.set.Cap() != slots {
			t.Fatalf("set index has %d slots, want %d", r.set.Cap(), slots)
		}
		if r.set.slots[0] == 0 {
			t.Fatal("no probe chain wrapped to the first slot")
		}
		checkConsistent(t, r)
		for k, i := range order {
			if !r.Remove(wrap[i]) {
				t.Fatalf("order %v: Remove(%v) reported absent", order, wrap[i])
			}
			checkConsistent(t, r)
			for _, j := range order[k+1:] {
				if !r.Contains(wrap[j]) {
					t.Fatalf("order %v: %v lost after removing %v", order, wrap[j], wrap[i])
				}
			}
		}
	}
}

// fuzzValues is the value alphabet of FuzzRelationOps: the separator alone,
// values that hold it at either end, and Skolem-shaped values that hold it
// inside, so distinct tuples of equal canonical key are common.
var fuzzValues = []string{"", "a", "b", "\x1f", "a\x1f", "\x1fb", "⟨f:a\x1fb⟩", "⟨f:a⟩"}

// keyTwin returns a 2-column tuple with the same Tuple.Key as tu, split at
// another separator when its key holds one (the choice driven by pick), and
// tu itself otherwise.
func keyTwin(tu Tuple, pick int) Tuple {
	k := tu.Key()
	var cuts []int
	for i := 0; i < len(k); i++ {
		if k[i] == 0x1f && i != len(tu[0]) {
			cuts = append(cuts, i)
		}
	}
	if len(cuts) == 0 {
		return tu
	}
	i := cuts[pick%len(cuts)]
	return Tuple{k[:i], k[i+1:]}
}

// FuzzRelationOps decodes its input into a stream of interleaved relation
// operations over 2-column relations and checks each step against a map of
// tuples: the relation's invariants after every step and, through each
// built column index, Lookup of every alphabet value. A clone op adds a
// copy of the relation it targets (Database.Clone), which shares that
// relation's tables until one of the two is written; every operation
// targets one of the copies, chosen by the input, and each copy is checked
// against a model of its own after every step. A write to one copy must
// leave every table another copy reads as it was — the same arrays, of the
// same lengths, and the same contents — so a writer that writes a shared
// table instead of copying it first fails here. The relations never hold
// more than 64 tuples, so an input is cut at maxFuzzOps operations: longer
// ones only slow the search down.
func FuzzRelationOps(f *testing.F) {
	const maxFuzzOps, maxFuzzCopies, fuzzOps = 128, 4, 11
	f.Add([]byte{0, 1, 4, 0, 2, 5, 0, 4, 2, 3, 0, 0, 0, 1, 4, 2, 5, 2, 4, 1, 2, 5, 6, 1, 4})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 3, 0, 3, 3, 1, 0, 0, 4, 0, 2, 2, 1, 0, 0, 7, 6, 6})
	f.Add([]byte{0, 4, 1, 0, 0, 5, 3, 0, 6, 7, 0, 7, 6, 2, 1, 1, 4, 1, 0, 5, 5, 4, 6, 6, 5, 0, 2})
	// Clone, then write the clone and the source in turn with each writer.
	f.Add([]byte{0, 1, 2, 0, 3, 4, 3, 0, 0, 4, 0, 0, 11, 5, 6, 0, 5, 7, 1, 1, 2, 13, 2, 1, 4, 0, 0, 21, 0, 0, 2, 3, 0, 8, 1, 0, 4, 0, 0, 19, 0, 0, 10, 7, 0, 21, 2, 0, 11, 1, 0})
	f.Add([]byte{0, 2, 2, 0, 3, 3, 8, 0, 0, 4, 0, 0, 19, 1, 0, 10, 6, 0, 0, 7, 7, 9, 0, 0, 20, 0, 0, 12, 2, 2, 33, 9, 0, 1, 3, 3, 24, 3, 3, 2, 0, 0, 23, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*maxFuzzOps {
			data = data[:3*maxFuzzOps]
		}
		copies := []*fuzzCopy{{rel: NewRelation("r", 2), model: make(map[[2]string]bool)}}
		for len(data) >= 3 {
			op, x, y := data[0]%fuzzOps, int(data[1]), int(data[2])
			c := copies[int(data[0]/fuzzOps)%len(copies)]
			data = data[3:]
			r := c.rel
			tu := Tuple{fuzzValues[x%len(fuzzValues)], fuzzValues[y%len(fuzzValues)]}
			m := [2]string{tu[0], tu[1]}
			others := make(map[*fuzzCopy]string, len(copies))
			for _, o := range copies {
				if o != c {
					others[o] = tablesOf(o.rel)
				}
			}
			switch op {
			case 0:
				if got := r.Insert(tu); got == c.model[m] {
					t.Fatalf("Insert(%q) = %v with the tuple present=%v", tu, got, c.model[m])
				}
				c.model[m] = true
			case 1:
				if got := r.Remove(tu); got != c.model[m] {
					t.Fatalf("Remove(%q) = %v with the tuple present=%v", tu, got, c.model[m])
				}
				delete(c.model, m)
			case 2:
				n := x % (r.Len() + 1)
				for _, s := range r.Tuples()[n:] {
					delete(c.model, [2]string{s[0], s[1]})
				}
				r.TruncateTo(n)
			case 3:
				r.BuildIndexes()
				c.built = [2]bool{true, true}
			case 4, 9:
				if op == 9 {
					r.BuildIndexes()
					c.built = [2]bool{true, true}
				}
				others[c] = tablesOf(r) // cloning writes no table
				cl := (&Database{rels: map[string]*Relation{"r": r}}).Clone().Relation("r")
				if op == 9 && !cl.Frozen() {
					t.Fatal("the clone of a frozen relation is not frozen")
				}
				checkSharesTables(t, r, cl)
				if len(copies) == maxFuzzCopies {
					copies = copies[1:]
				}
				copies = append(copies, &fuzzCopy{rel: cl, model: maps.Clone(c.model), built: c.built})
			case 5:
				if got := r.Contains(tu); got != c.model[m] {
					t.Fatalf("Contains(%q) = %v, want %v", tu, got, c.model[m])
				}
			case 6:
				sw := Tuple{tu[1], tu[0]}
				if got, want := r.Contains(sw), c.model[[2]string{sw[0], sw[1]}]; got != want {
					t.Fatalf("Contains(%q) = %v, want %v", sw, got, want)
				}
			case 7:
				tw := keyTwin(tu, x)
				if got, want := r.Contains(tw), c.model[[2]string{tw[0], tw[1]}]; got != want {
					t.Fatalf("Contains(%q), the key twin of %q, = %v, want %v", tw, tu, got, want)
				}
			case 8:
				r.BuildColumnIndex(x % 2)
				c.built[x%2] = true
			case 10:
				r.Grow(1 + x%8)
			}
			for o, before := range others {
				if after := tablesOf(o.rel); after != before {
					t.Fatalf("op %d on one copy changed another's tables:\nbefore %s\nafter  %s", op, before, after)
				}
			}
			for _, o := range copies {
				o.check(t, op)
			}
		}
	})
}

// fuzzCopy is one copy of FuzzRelationOps's relation — the first, or a
// clone — with the model of what it holds and which columns it has built.
type fuzzCopy struct {
	rel   *Relation
	model map[[2]string]bool
	built [2]bool
}

// check compares the copy with its model: its invariants, its length, every
// column's distinct count and, on each built column, Lookup of every
// alphabet value.
func (c *fuzzCopy) check(t *testing.T, op byte) {
	t.Helper()
	r := c.rel
	if r.Len() != len(c.model) {
		t.Fatalf("after op %d: Len = %d, model holds %d", op, r.Len(), len(c.model))
	}
	checkConsistent(t, r)
	for col := 0; col < 2; col++ {
		vals := make(map[string]bool)
		for m := range c.model {
			vals[m[col]] = true
		}
		if got := r.Distinct(col); got != len(vals) {
			t.Fatalf("after op %d: Distinct(%d) = %d, model holds %d values", op, col, got, len(vals))
		}
		if _, ok := r.ColumnIndex(col); ok != c.built[col] {
			t.Fatalf("after op %d: column %d built = %v, the copy built it: %v", op, col, ok, c.built[col])
		}
		if !c.built[col] {
			continue // Lookup would build it
		}
		for _, v := range fuzzValues {
			want := 0
			for m := range c.model {
				if m[col] == v {
					want++
				}
			}
			got := r.Lookup(col, v)
			for _, s := range got {
				if s[col] != v || !c.model[[2]string{s[0], s[1]}] {
					t.Fatalf("after op %d: Lookup(%d, %q) returned %q", op, col, v, s)
				}
			}
			if len(got) != want {
				t.Fatalf("after op %d: Lookup(%d, %q) returned %d tuples, model holds %d", op, col, v, len(got), want)
			}
		}
	}
}

// tablesOf describes the tables a relation reads — the tuple array, the
// set index's slots and each column index object with its heads and chain
// links — by address, length and capacity: what a write to another relation
// sharing them would change.
func tablesOf(r *Relation) string {
	s := fmt.Sprintf("tuples %p/%d/%d set %p/%d/%d", unsafe.SliceData(r.tuples), len(r.tuples), cap(r.tuples),
		unsafe.SliceData(r.set.slots), len(r.set.slots), r.set.n)
	for col, x := range r.indexes {
		if x != nil {
			s += fmt.Sprintf(" col%d %p heads %p/%d/%d next %p/%d/%d", col, x, unsafe.SliceData(x.heads.slots), len(x.heads.slots), x.heads.n,
				unsafe.SliceData(x.next), len(x.next), cap(x.next))
		}
	}
	return s
}

// checkSharesTables asserts that a fresh clone holds its original's tables
// themselves — the tuple array, the set index and every column index — and
// so its stored tuples, and that both are marked to copy on a write.
func checkSharesTables(t *testing.T, orig, clone *Relation) {
	t.Helper()
	if tablesOf(orig) != tablesOf(clone) || len(orig.indexes) != len(clone.indexes) {
		t.Fatalf("clone holds other tables than its original:\n%s\n%s", tablesOf(clone), tablesOf(orig))
	}
	if !orig.shares() || !clone.shares() {
		t.Fatalf("clone and original count other holders: %v and %v", clone.shares(), orig.shares())
	}
	for i := range orig.tuples {
		if unsafe.SliceData(orig.tuples[i]) != unsafe.SliceData(clone.tuples[i]) {
			t.Fatalf("clone's tuple %d %q is a copy of the original's, not the stored tuple", i, clone.tuples[i])
		}
	}
}

// TestRelationAllocs pins what the indexes cost on a frozen relation of
// 100 000 tuples: membership tests and removals allocate nothing, and an
// insert allocates only the stored clone of its tuple, also when both its
// values are new to the column indexes. A database clone allocates the
// database, its map and one relation header, 4 in all, sharing every table
// until one is written (TestCloneAllocs); its budget was 16 while it copied
// the array of tuples and every index, and one more per tuple while it
// cloned each tuple. With
// the set index keyed by Tuple.Key strings the first three counts were 1,
// 2 and 2; with per-value posting lists a new-valued insert and removal
// cost 3, and a clone, which rebuilt them, 290 800.
func TestRelationAllocs(t *testing.T) {
	const n, runs = 100000, 100
	r := NewRelation("r", 2)
	for i := 0; i < n; i++ {
		r.Insert(Tuple{fmt.Sprint("a", i%1000), fmt.Sprint("b", i/1000)})
	}
	long := Tuple{strings.Repeat("x", 40), strings.Repeat("y", 40)} // values past any small stack buffer
	r.Insert(long)
	r.BuildIndexes()
	victims := make([]Tuple, runs+1)
	for i := range victims {
		victims[i] = r.Tuples()[i*(n/len(victims))].Clone()
	}
	present, absent := victims[0], Tuple{"a1", "b-none"}
	if got := testing.AllocsPerRun(runs, func() { r.Contains(present); r.Contains(absent) }); got != 0 {
		t.Errorf("Contains: %.0f allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(runs, func() { r.Contains(long) }); got != 0 {
		t.Errorf("Contains of a long tuple: %.0f allocs, want 0", got)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() { r.Remove(victims[next]); next++ }); got != 0 {
		t.Errorf("Remove: %.0f allocs, want 0", got)
	}
	next = 0
	if got := testing.AllocsPerRun(runs, func() { r.Insert(victims[next]); next++ }); got != 1 {
		t.Errorf("Insert: %.0f allocs, want 1", got)
	}
	if r.Len() != n+1 || !r.Frozen() {
		t.Fatalf("Len = %d, Frozen = %v after re-inserting every removed tuple", r.Len(), r.Frozen())
	}
	fresh := Tuple{"a-new", "b-new"}
	if got := testing.AllocsPerRun(runs, func() { r.Insert(fresh); r.Remove(fresh) }); got != 1 {
		t.Errorf("Insert and Remove of new values: %.0f allocs, want 1", got)
	}
	checkConsistent(t, r)
	db := &Database{rels: map[string]*Relation{"r": r}}
	if got, limit := testing.AllocsPerRun(1, func() { db.Clone() }), 4.0; got > limit {
		t.Errorf("Database.Clone: %.0f allocs, want at most %.0f", got, limit)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestRelationGrow: after Grow(n), adopting n tuples reallocates neither
// the tuple slice, nor a built column index's links, nor the set index —
// only a new distinct value may grow a column's heads — and growing one
// tuple at a time still grows amortised, like append. The race detector's
// instrumentation allocates, so under it only the relations' consistency
// is checked.
func TestRelationGrow(t *testing.T) {
	const n = 1000
	r := NewRelation("r", 2)
	for i := 0; i < 100; i++ {
		r.Insert(Tuple{fmt.Sprint("a", i%10), fmt.Sprint("b", i)})
	}
	r.BuildColumnIndex(0)
	batch := make([]Tuple, n)
	for i := range batch {
		batch[i] = Tuple{fmt.Sprint("a", i%10), fmt.Sprint("c", i)} // column 0 holds no new value
	}
	if got := testing.AllocsPerRun(1, func() {
		r.Grow(n)
		for _, tup := range batch {
			r.Adopt(tup)
		}
	}); got > 3 && !raceEnabled {
		t.Errorf("Grow(%d) then %d adoptions: %.0f allocs, want at most 3 (one per grown array)", n, n, got)
	}
	checkConsistent(t, r)
	one := NewRelation("one", 2)
	if got := testing.AllocsPerRun(1, func() {
		for _, tup := range batch {
			one.Grow(1)
			one.Adopt(tup)
		}
	}); got > 40 && !raceEnabled {
		t.Errorf("%d single-tuple grows: %.0f allocs, want amortised growth", n, got)
	}
	checkConsistent(t, one)
}
