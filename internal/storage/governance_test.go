package storage

import (
	"errors"
	"fmt"
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
