package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

func TestEnsureReturnsArityError(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Ensure("r", 2); err != nil {
		t.Fatal(err)
	}
	_, err := db.Ensure("r", 3)
	if !errors.As(err, new(*ArityError)) {
		t.Fatalf("flat Ensure err = %T (%v)", err, err)
	}
	// Message text is unchanged from the pre-typed error.
	want := "storage: relation r has arity 2, requested 3"
	if err.Error() != want {
		t.Fatalf("message = %q, want %q", err.Error(), want)
	}
}

func TestDrop(t *testing.T) {
	db := NewDatabase()
	db.Insert("r", Tuple{"a"})
	db.Drop("r")
	if db.Relation("r") != nil {
		t.Fatal("flat Drop left the relation")
	}
}

func TestTruncateToUnindexed(t *testing.T) {
	r := NewRelation("r", 1)
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{fmt.Sprintf("v%d", i)})
	}
	r.TruncateTo(4)
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Contains(Tuple{"v7"}) {
		t.Fatal("truncated tuple still Contains")
	}
	// Re-inserting a truncated tuple must report it as new again.
	if !r.Insert(Tuple{"v7"}) {
		t.Fatal("re-insert after truncate reported duplicate")
	}
}

func TestTruncateToMaintainedIndexes(t *testing.T) {
	r := NewRelation("r", 2)
	for i := 0; i < 6; i++ {
		r.Insert(Tuple{fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i)})
	}
	r.BuildIndexes()
	// Maintained inserts extend the built indexes.
	r.Insert(Tuple{"k0", "v6"})
	r.Insert(Tuple{"k9", "v7"})
	if !r.Frozen() {
		t.Fatal("relation should stay frozen across maintained inserts")
	}
	r.TruncateTo(6)
	if !r.Frozen() {
		t.Fatal("relation should stay frozen across TruncateTo")
	}
	if got := r.Lookup(0, "k9"); len(got) != 0 {
		t.Fatalf("index still finds truncated tuple: %v", got)
	}
	if got := r.Lookup(0, "k0"); len(got) != 2 {
		t.Fatalf("k0 lookup = %v, want the 2 surviving tuples", got)
	}
	if got := r.Lookup(1, "v6"); len(got) != 0 {
		t.Fatalf("column-1 index still finds truncated tuple: %v", got)
	}
	// The index keeps answering correctly for further maintained inserts.
	r.Insert(Tuple{"k9", "v8"})
	if got := r.Lookup(0, "k9"); len(got) != 1 || got[0][1] != "v8" {
		t.Fatalf("post-truncate insert lookup = %v", got)
	}
}

func TestTruncateToNoop(t *testing.T) {
	r := NewRelation("r", 1)
	r.Insert(Tuple{"a"})
	r.BuildIndexes()
	r.TruncateTo(1) // n == Len: nothing to do
	if r.Len() != 1 || !r.Frozen() {
		t.Fatal("no-op truncate changed the relation")
	}
	r.TruncateTo(5) // n > Len: nothing to do
	if r.Len() != 1 {
		t.Fatal("oversized truncate changed the relation")
	}
}

// TestTruncateToReleasesTail: a rollback must not keep the discarded
// tuples alive through the tuple slice's backing array, which the next
// appends may not overwrite for a long time.
func TestTruncateToReleasesTail(t *testing.T) {
	r := NewRelation("r", 1)
	for i := 0; i < 10; i++ {
		r.Insert(Tuple{fmt.Sprintf("v%d", i)})
	}
	r.BuildIndexes()
	r.TruncateTo(4)
	for i, tu := range r.tuples[4:10] {
		if tu != nil {
			t.Fatalf("position %d still references truncated tuple %q", 4+i, tu)
		}
	}
}

// TestTruncateToZero: TruncateTo(0) leaves a relation equal to a fresh one
// with the same columns built — no tuple, no head, no link, every Distinct
// 0 — and refilled, it probes like a fresh relation holding the same
// tuples. A truncate-and-refill cycle to the earlier size allocates nothing.
func TestTruncateToZero(t *testing.T) {
	fill := func(r *Relation, tag string, n int) []Tuple {
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = Tuple{fmt.Sprintf("%s%d", tag, i%7), fmt.Sprintf("%s%d", tag, i), "c"}
			r.Adopt(ts[i])
		}
		return ts
	}
	r := NewRelation("r", 3)
	old := fill(r, "a", 50)
	r.BuildColumnIndex(0)
	r.BuildColumnIndex(2) // column 1 stays unbuilt
	r.TruncateTo(0)

	checkConsistent(t, r)
	if r.Len() != 0 || len(r.Tuples()) != 0 {
		t.Fatalf("truncated relation holds %d tuples", r.Len())
	}
	for i, x := range r.indexes {
		if built := x != nil; built != (i != 1) {
			t.Fatalf("column %d built = %v after TruncateTo(0), want %v", i, built, i != 1)
		}
		if x != nil && (x.heads.Len() != 0 || len(x.next) != 0) {
			t.Fatalf("column %d keeps %d heads and %d links", i, x.heads.Len(), len(x.next))
		}
	}
	for col := range 3 {
		if d := r.Distinct(col); d != 0 {
			t.Fatalf("Distinct(%d) = %d after TruncateTo(0)", col, d)
		}
	}
	for _, tu := range old {
		if r.Contains(tu) {
			t.Fatalf("truncated relation still contains %q", tu)
		}
	}
	for i, tu := range r.tuples[:cap(r.tuples)] {
		if tu != nil {
			t.Fatalf("slot %d still references %q", i, tu)
		}
	}

	fresh := NewRelation("r", 3)
	fresh.BuildColumnIndex(0)
	fresh.BuildColumnIndex(2)
	for _, tu := range fill(r, "b", 40) {
		fresh.Adopt(tu)
	}
	checkConsistent(t, r)
	if got, want := (&Database{rels: map[string]*Relation{"r": r}}), (&Database{rels: map[string]*Relation{"r": fresh}}); !got.Equal(want) {
		t.Fatal("refilled relation differs from a fresh one with the same tuples")
	}
	for _, col := range []int{0, 2} {
		for _, v := range []string{"b0", "b3", "b39", "c", "a0", "absent"} {
			got, _ := probe(r, col, v)
			want, _ := probe(fresh, col, v)
			if !slices.Equal(got, want) {
				t.Fatalf("column %d probe %q = %v, fresh relation %v", col, v, got, want)
			}
		}
		if r.Distinct(col) != fresh.Distinct(col) {
			t.Fatalf("Distinct(%d) = %d, fresh relation %d", col, r.Distinct(col), fresh.Distinct(col))
		}
	}

	if raceEnabled {
		return
	}
	again := r.Tuples()[:0:0]
	again = append(again, r.Tuples()...)
	if n := testing.AllocsPerRun(20, func() {
		r.TruncateTo(0)
		for _, tu := range again {
			r.Adopt(tu)
		}
	}); n != 0 {
		t.Fatalf("truncate and refill to the earlier size: %v allocations, want 0", n)
	}
}
