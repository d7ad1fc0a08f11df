package storage

import (
	"fmt"
	"slices"
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
// operations over a 2-column relation and checks each step against a map
// of tuples: the relation's invariants after every step and, through each
// built column index, Lookup of every alphabet value. The relation never
// holds more than 64 tuples, so an input is cut at maxFuzzOps operations:
// longer ones only slow the search down.
func FuzzRelationOps(f *testing.F) {
	const maxFuzzOps = 128
	f.Add([]byte{0, 1, 4, 0, 2, 5, 0, 4, 2, 3, 0, 0, 0, 1, 4, 2, 5, 2, 4, 1, 2, 5, 6, 1, 4})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 3, 0, 3, 3, 1, 0, 0, 4, 0, 2, 2, 1, 0, 0, 7, 6, 6})
	f.Add([]byte{0, 4, 1, 0, 0, 5, 3, 0, 6, 7, 0, 7, 6, 2, 1, 1, 4, 1, 0, 5, 5, 4, 6, 6, 5, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		db := NewDatabase()
		r, _ := db.Ensure("r", 2)
		if len(data) > 3*maxFuzzOps {
			data = data[:3*maxFuzzOps]
		}
		model := make(map[[2]string]bool)
		// Every relation a clone was taken from, with its contents at the
		// time: the clone shares its stored tuples, so no later operation
		// on the clone may change them.
		var originals []clonedFrom
		cloned := func(old *Relation) {
			checkConsistent(t, old)
			checkSharesTuples(t, old, r)
			originals = append(originals, clonedFrom{old, snapshotTuples(old)})
		}
		for len(data) >= 3 {
			op, x, y := data[0]%10, int(data[1]), int(data[2])
			data = data[3:]
			tu := Tuple{fuzzValues[x%len(fuzzValues)], fuzzValues[y%len(fuzzValues)]}
			m := [2]string{tu[0], tu[1]}
			switch op {
			case 0:
				if got := r.Insert(tu); got == model[m] {
					t.Fatalf("Insert(%q) = %v with the tuple present=%v", tu, got, model[m])
				}
				model[m] = true
			case 1:
				if got := r.Remove(tu); got != model[m] {
					t.Fatalf("Remove(%q) = %v with the tuple present=%v", tu, got, model[m])
				}
				delete(model, m)
			case 2:
				n := x % (r.Len() + 1)
				for _, s := range r.Tuples()[n:] {
					delete(model, [2]string{s[0], s[1]})
				}
				r.TruncateTo(n)
			case 3:
				r.BuildIndexes()
			case 4:
				old := r
				db = db.Clone()
				r = db.Relation("r")
				cloned(old)
			case 5:
				if got := r.Contains(tu); got != model[m] {
					t.Fatalf("Contains(%q) = %v, want %v", tu, got, model[m])
				}
			case 6:
				sw := Tuple{tu[1], tu[0]}
				if got, want := r.Contains(sw), model[[2]string{sw[0], sw[1]}]; got != want {
					t.Fatalf("Contains(%q) = %v, want %v", sw, got, want)
				}
			case 7:
				tw := keyTwin(tu, x)
				if got, want := r.Contains(tw), model[[2]string{tw[0], tw[1]}]; got != want {
					t.Fatalf("Contains(%q), the key twin of %q, = %v, want %v", tw, tu, got, want)
				}
			case 8:
				r.BuildColumnIndex(x % 2)
			case 9:
				r.BuildIndexes()
				old := r
				db = db.Clone()
				r = db.Relation("r")
				if !r.Frozen() {
					t.Fatal("the clone of a frozen relation is not frozen")
				}
				cloned(old)
			}
			for _, o := range originals {
				if got := snapshotTuples(o.rel); !slices.Equal(got, o.snap) {
					t.Fatalf("after op %d: a relation cloned earlier changed: %q, was %q", op, got, o.snap)
				}
			}
			if r.Len() != len(model) {
				t.Fatalf("after op %d: Len = %d, model holds %d", op, r.Len(), len(model))
			}
			checkConsistent(t, r)
			for col := 0; col < 2; col++ {
				vals := make(map[string]bool)
				for m := range model {
					vals[m[col]] = true
				}
				if got := r.Distinct(col); got != len(vals) {
					t.Fatalf("after op %d: Distinct(%d) = %d, model holds %d values", op, col, got, len(vals))
				}
				if _, ok := r.ColumnIndex(col); !ok {
					continue // Lookup would build it
				}
				for _, v := range fuzzValues {
					want := 0
					for m := range model {
						if m[col] == v {
							want++
						}
					}
					got := r.Lookup(col, v)
					for _, s := range got {
						if s[col] != v || !model[[2]string{s[0], s[1]}] {
							t.Fatalf("after op %d: Lookup(%d, %q) returned %q", op, col, v, s)
						}
					}
					if len(got) != want {
						t.Fatalf("after op %d: Lookup(%d, %q) returned %d tuples, model holds %d", op, col, v, len(got), want)
					}
				}
			}
		}
	})
}

// clonedFrom is a relation a clone was taken from and its contents then.
type clonedFrom struct {
	rel  *Relation
	snap [][2]string
}

// snapshotTuples copies a binary relation's tuples, in order, into values
// that share nothing with it.
func snapshotTuples(r *Relation) [][2]string {
	out := make([][2]string, r.Len())
	for i, t := range r.Tuples() {
		out[i] = [2]string{t[0], t[1]}
	}
	return out
}

// checkSharesTuples asserts that a clone holds its original's stored tuples
// themselves, position by position — the same backing arrays, not copies —
// in tuple arrays of its own.
func checkSharesTuples(t *testing.T, orig, clone *Relation) {
	t.Helper()
	a, b := orig.Tuples(), clone.Tuples()
	if len(a) != len(b) {
		t.Fatalf("clone holds %d tuples, original %d", len(b), len(a))
	}
	if len(a) > 0 && &a[0] == &b[0] {
		t.Fatal("clone shares the original's tuple array")
	}
	for i := range a {
		if unsafe.SliceData(a[i]) != unsafe.SliceData(b[i]) {
			t.Fatalf("clone's tuple %d %q is a copy of the original's, not the stored tuple", i, b[i])
		}
	}
}

// TestRelationAllocs pins what the indexes cost on a frozen relation of
// 100 000 tuples: membership tests and removals allocate nothing, and an
// insert allocates only the stored clone of its tuple, also when both its
// values are new to the column indexes. A database clone allocates a
// constant number: it copies the array of tuples, not the tuples, which it
// shares, and every index as it is (one copy per tuple, 100 001 more, while
// it cloned each tuple). With
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
	if got, limit := testing.AllocsPerRun(1, func() { db.Clone() }), 16.0; got > limit {
		t.Errorf("Database.Clone: %.0f allocs, want at most %.0f", got, limit)
	}
}
