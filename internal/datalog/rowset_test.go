package datalog

import (
	"fmt"
	"testing"
)

// TestRowSetSharedBuckets fills a set, past the linear range, with rows that
// share one home bucket of the initial table — and with two distinct rows of
// equal 32-bit hash — so membership is decided along probe chains and by
// the column compare alone: every distinct row is kept once, every repeat
// is refused, and the rows come back in insertion order.
func TestRowSetSharedBuckets(t *testing.T) {
	const buckets = 4 * linearDedupRows // the table the set indexes into first
	var rows [][]string
	for i := 0; len(rows) < 3*linearDedupRows; i++ {
		row := []string{fmt.Sprint("r", i), "x"}
		if hashRow(row)%buckets == 0 {
			rows = append(rows, row)
		}
	}
	// A birthday search finds two one-column rows with equal hashes after
	// about 2^16 tries.
	byHash := make(map[uint32]string)
	for i := 0; i < 1<<22; i++ {
		v := fmt.Sprint("c", i)
		h := hashRow([]string{v})
		if prev, ok := byHash[h]; ok {
			rows = append(rows, []string{prev}, []string{v})
			break
		}
		byHash[h] = v
	}
	if n := len(rows); len(rows[n-1]) != 1 || hashRow(rows[n-2]) != hashRow(rows[n-1]) {
		t.Fatal("no 32-bit hash collision found")
	}
	shared := rows[:3*linearDedupRows]
	colliding := rows[3*linearDedupRows:]

	var wide, narrow RowSet
	for pass := 0; pass < 2; pass++ {
		for i, row := range shared {
			if got := wide.Add(row); got != (pass == 0) {
				t.Fatalf("pass %d: Add(%v) = %v at row %d", pass, row, got, i)
			}
		}
		for i := 0; i < 2*linearDedupRows; i++ { // past the linear range
			narrow.Add([]string{fmt.Sprint("filler", i)})
		}
		for _, row := range colliding {
			if got := narrow.Add(row); got != (pass == 0) {
				t.Fatalf("pass %d: Add(%v) = %v for a colliding row", pass, row, got)
			}
		}
	}
	if wide.Len() != len(shared) || narrow.Len() != 2*linearDedupRows+2 {
		t.Fatalf("Len = %d and %d, want %d and %d", wide.Len(), narrow.Len(), len(shared), 2*linearDedupRows+2)
	}
	out := wide.Rows()
	for i, row := range out {
		if row.Compare(shared[i]) != 0 || cap(row) != len(row) {
			t.Fatalf("row %d = %v (cap %d), want %v", i, row, cap(row), shared[i])
		}
	}
	out[0] = append(out[0], "grown") // a capacity-limited row reallocates
	if out[1][0] != shared[1][0] {
		t.Fatalf("appending to row 0 overwrote row 1: %v", out[1])
	}
}

// TestRowSetWidth: the first Add fixes the width; a row of another width is
// a programming error.
func TestRowSetWidth(t *testing.T) {
	var s RowSet
	if !s.Add([]string{}) || s.Add([]string{}) || s.Len() != 1 {
		t.Fatalf("zero-width rows: Len = %d, want 1", s.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adding a wider row did not panic")
		}
	}()
	s.Add([]string{"a"})
}
