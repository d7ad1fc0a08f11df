package storage

import (
	"slices"
	"sort"
	"testing"
)

// checkConsistent verifies the relation's invariants after a mutation
// sequence: the set index holds exactly one slot per stored tuple, at most
// half full, and finds each tuple at its own position, by tuple and by
// canonical key. Every built column index holds one head per distinct
// value, at most half full, one link per tuple, and the chain walked from
// each value's head visits exactly that value's positions, each once.
func checkConsistent(t *testing.T, r *Relation) {
	t.Helper()
	if occupied := countSlots(&r.set); occupied != len(r.tuples) || r.set.Len() != len(r.tuples) {
		t.Fatalf("set index has %d occupied slots (Len %d), store has %d tuples", occupied, r.set.Len(), len(r.tuples))
	}
	if 2*len(r.tuples) > r.set.Cap() {
		t.Fatalf("set index is %d/%d full, more than half", len(r.tuples), r.set.Cap())
	}
	for i, tup := range r.tuples {
		p := r.set.Probe(hashTuple(tup))
		pos := p.Next()
		for pos >= 0 && pos != i {
			pos = p.Next()
		}
		if pos != i {
			t.Fatalf("tuple %q at position %d not found there by its hash", tup, i)
		}
		if r.find(hashTuple(tup), tup) != i {
			t.Fatalf("tuple %q at position %d found at %d", tup, i, r.find(hashTuple(tup), tup))
		}
		if !r.Contains(tup) {
			t.Fatalf("stored tuple %q is not contained", tup)
		}
	}
	if r.indexes != nil && len(r.indexes) != r.arity {
		t.Fatalf("%d column index entries for arity %d", len(r.indexes), r.arity)
	}
	for col := 0; col < r.arity; col++ {
		vals := make(map[string]bool)
		for _, tup := range r.tuples {
			vals[tup[col]] = true
		}
		_, built := r.ColumnIndex(col)
		if got := r.Distinct(col); got != len(vals) {
			t.Fatalf("col %d (built %v): Distinct = %d, want %d", col, built, got, len(vals))
		}
		if _, after := r.ColumnIndex(col); after != built {
			t.Fatalf("col %d: Distinct changed whether the column is built (%v -> %v)", col, built, after)
		}
	}
	for col := range r.indexes {
		x := r.index(col)
		if x == nil {
			continue
		}
		if x.col != col {
			t.Fatalf("index of column %d says column %d", col, x.col)
		}
		want := make(map[string][]int)
		for i, tup := range r.tuples {
			want[tup[col]] = append(want[tup[col]], i)
		}
		if occupied := countSlots(&x.heads); x.heads.Len() != len(want) || occupied != len(want) {
			t.Fatalf("col %d: %d heads (%d occupied slots), want %d distinct values", col, x.heads.Len(), occupied, len(want))
		}
		if 2*x.heads.Len() > x.heads.Cap() {
			t.Fatalf("col %d: heads are %d/%d full, more than half", col, x.heads.Len(), x.heads.Cap())
		}
		if len(x.next) != len(r.tuples) {
			t.Fatalf("col %d: %d chain links for %d tuples", col, len(x.next), len(r.tuples))
		}
		for v, ps := range want {
			var got []int
			for pos := x.First(r.tuples, v); pos >= 0; pos = x.Next(pos) {
				if len(got) == len(ps) {
					t.Fatalf("col %d value %q: chain runs past its %d positions (a cycle or a foreign link): %v then %d", col, v, len(ps), got, pos)
				}
				got = append(got, pos)
			}
			sort.Ints(got)
			if !slices.Equal(got, ps) {
				t.Fatalf("col %d value %q: chain visits %v, want %v", col, v, got, ps)
			}
		}
	}
}

// countSlots counts a table's occupied slots.
func countSlots(t *PosTable) int {
	n := 0
	for _, e := range t.slots {
		if e != 0 {
			n++
		}
	}
	return n
}

func TestRemoveFrozenMaintainsIndexes(t *testing.T) {
	r := NewRelation("r", 2)
	rows := []Tuple{{"a", "1"}, {"b", "2"}, {"a", "3"}, {"c", "2"}, {"b", "1"}}
	for _, tu := range rows {
		r.Insert(tu)
	}
	probeAll(r)
	if !allBuilt(r) {
		t.Fatal("expected every column built after probing each")
	}
	if !r.Remove(Tuple{"b", "2"}) {
		t.Fatal("Remove of present tuple reported absent")
	}
	if !allBuilt(r) {
		t.Fatal("every column index should survive a maintained Remove")
	}
	if r.Contains(Tuple{"b", "2"}) {
		t.Fatal("removed tuple still Contains")
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	checkConsistent(t, r)
	// The swapped-down tuple (the former tail) must still be probeable.
	ps, ok := probe(r, 0, "b")
	if !ok || len(ps) != 1 || r.tuples[ps[0]].Key() != (Tuple{"b", "1"}).Key() {
		t.Fatalf("probe for swapped tuple failed: ps=%v ok=%v", ps, ok)
	}
	// Removing the absent tuple again is a no-op.
	if r.Remove(Tuple{"b", "2"}) {
		t.Fatal("Remove of absent tuple reported present")
	}
	// Drain the relation entirely, checking invariants throughout.
	for _, tu := range []Tuple{{"a", "1"}, {"b", "1"}, {"a", "3"}, {"c", "2"}} {
		if !r.Remove(tu) {
			t.Fatalf("Remove(%v) reported absent", tu)
		}
		checkConsistent(t, r)
	}
	if r.Len() != 0 || !allBuilt(r) {
		t.Fatalf("drained relation: Len=%d every column built=%v", r.Len(), allBuilt(r))
	}
}

func TestRemovePartiallyIndexed(t *testing.T) {
	r := NewRelation("r", 3)
	for _, tu := range []Tuple{{"a", "x", "1"}, {"b", "y", "2"}, {"a", "y", "3"}} {
		r.Insert(tu)
	}
	r.BuildColumnIndex(1) // only column 1 built
	if !r.Remove(Tuple{"a", "x", "1"}) {
		t.Fatal("Remove reported absent")
	}
	checkConsistent(t, r)
	if _, ok := r.ColumnIndex(1); !ok {
		t.Fatal("built column index should survive a maintained Remove")
	}
	ps, ok := probe(r, 1, "y")
	if !ok || len(ps) != 2 {
		t.Fatalf("col-1 probe after Remove: ps=%v ok=%v", ps, ok)
	}
}

func TestRemoveUnindexed(t *testing.T) {
	r := NewRelation("r", 2)
	r.Insert(Tuple{"a", "1"})
	r.Insert(Tuple{"b", "2"})
	if !r.Remove(Tuple{"a", "1"}) {
		t.Fatal("Remove reported absent")
	}
	if r.Len() != 1 || r.Contains(Tuple{"a", "1"}) || !r.Contains(Tuple{"b", "2"}) {
		t.Fatal("unindexed Remove left wrong contents")
	}
	checkConsistent(t, r)
	// A later index build over the mutated store must be correct.
	probeAll(r)
	checkConsistent(t, r)
}

func TestRemoveStaleIndexInvalidates(t *testing.T) {
	r := NewRelation("r", 2)
	r.Insert(Tuple{"a", "1"})
	probeAll(r)
	// No mutation path leaves a built index stale: an insert after
	// BuildIndexes is maintained, and a Remove after it repairs the
	// maintained indexes.
	r2 := NewRelation("s", 2)
	r2.Insert(Tuple{"a", "1"})
	probeAll(r2)
	r2.Insert(Tuple{"b", "2"}) // maintained: every index stays built
	if !allBuilt(r2) {
		t.Fatal("maintained insert should keep every column index")
	}
	if !r2.Remove(Tuple{"a", "1"}) {
		t.Fatal("Remove reported absent")
	}
	checkConsistent(t, r2)
}

func TestTruncateToAfterRemove(t *testing.T) {
	// After a swap-remove, chains are no longer in position order:
	// TruncateTo must still unlink the truncated positions wherever they sit.
	r := NewRelation("r", 2)
	for _, tu := range []Tuple{{"a", "1"}, {"b", "1"}, {"c", "1"}, {"d", "1"}} {
		r.Insert(tu)
	}
	probeAll(r)
	r.Remove(Tuple{"a", "1"}) // d swaps into position 0
	n := r.Len()
	r.Insert(Tuple{"e", "1"})
	r.Insert(Tuple{"f", "1"})
	r.TruncateTo(n)
	if r.Len() != n || r.Contains(Tuple{"e", "1"}) || r.Contains(Tuple{"f", "1"}) {
		t.Fatal("TruncateTo after Remove left wrong contents")
	}
	if !allBuilt(r) {
		t.Fatal("TruncateTo over maintained indexes should keep them")
	}
	checkConsistent(t, r)
}

func TestDatabaseRemove(t *testing.T) {
	db := NewDatabase()
	db.Insert("r", Tuple{"a", "1"})
	if db.Remove("missing", Tuple{"a"}) {
		t.Fatal("Remove from missing relation reported present")
	}
	if db.Remove("r", Tuple{"a"}) {
		t.Fatal("Remove with wrong arity reported present")
	}
	if !db.Remove("r", Tuple{"a", "1"}) {
		t.Fatal("Remove of present tuple reported absent")
	}
	if db.Relation("r").Len() != 0 {
		t.Fatal("tuple survives Remove")
	}
}
