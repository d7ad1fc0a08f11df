package datalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
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

// TestRowSetSortMatchesSortTuples: a sorted set reads back the rows
// storage.SortTuples gives for the same rows, through Row and through
// Rows, for sets of every size from empty through well past the linear
// range, of widths 1 to 3 over values with shared prefixes, zero bytes and
// empty strings.
func TestRowSetSortMatchesSortTuples(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vals := []string{"", "a", "ab", "b", "b\x00", "x1", "x10", "x2", "\xff",
		"abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefg\xff", "\x00\x00\x00\x00\x00\x00\x00\x00\x00"}
	for _, n := range []int{0, 1, 2, 3, linearDedupRows, 2*linearDedupRows + 1, 300} {
		for width := 1; width <= 3; width++ {
			set := AcquireRowSet()
			for tries := 0; set.Len() < n && tries < 100*n; tries++ {
				row := make([]string, width)
				for i := range row {
					row[i] = vals[rng.IntN(len(vals))] + fmt.Sprint(rng.IntN(n/4+1))
				}
				set.Add(row)
			}
			want := storage.SortTuples(set.Rows())
			set.Sort()
			if set.Len() != len(want) {
				t.Fatalf("n=%d width=%d: Len = %d after Sort, want %d", n, width, set.Len(), len(want))
			}
			copied := set.Rows()
			for i, w := range want {
				if got := set.Row(i); got.Compare(w) != 0 || cap(got) != width || copied[i].Compare(w) != 0 {
					t.Fatalf("n=%d width=%d: row %d = %q (cap %d), copied %q, want %q", n, width, i, got, cap(got), copied[i], w)
				}
			}
			set.Release()
		}
	}
}

// TestRowSetLifecycle: a pooled set takes no row once sorted, and a
// released set can be neither read, sorted, added to nor released again —
// the ways one request's answers could be overwritten by another's.
func TestRowSetLifecycle(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	set := AcquireRowSet()
	set.Add([]string{"b"})
	set.Add([]string{"a"})
	set.Sort()
	mustPanic("Add after Sort", func() { set.Add([]string{"c"}) })
	mustPanic("addAll after Sort", func() { set.addAll(&RowSet{}) })
	if got := set.Rows(); len(got) != 2 || got[0][0] != "a" {
		t.Fatalf("sorted rows = %v", got)
	}
	set.Release()
	mustPanic("Row after Release", func() { set.Row(0) })
	mustPanic("Sort after Release", func() { set.Sort() })
	mustPanic("Add after Release", func() { set.Add([]string{"c"}) })
	mustPanic("a second Release", func() { set.Release() })

	fresh := AcquireRowSet()
	defer fresh.Release()
	if fresh.Len() != 0 || !fresh.Add([]string{"x", "y"}) {
		t.Fatalf("acquired set is not empty and open: Len %d", fresh.Len())
	}
}

// TestRowSetPooledAllocs: a pooled set that answered a 200-row request
// answers the next one, sort included, without allocating.
func TestRowSetPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rows := make([][]string, 200)
	for i := range rows {
		rows[i] = []string{fmt.Sprint("k", 199-i), "y"}
	}
	answer := func() {
		set := AcquireRowSet()
		for _, row := range rows {
			set.Add(row)
		}
		set.Sort()
		set.Release()
	}
	answer()
	if n := testing.AllocsPerRun(50, answer); n != 0 {
		t.Fatalf("pooled 200-row answer: %.0f allocs/op, want 0", n)
	}
}

// TestEvalIntoUnion: plans adding into one set dedup against the rows
// already there, and each plan's row budget counts its own answers. An
// empty set takes the run's storage, or the combined rows of a
// multi-component plan without a lookup; a non-empty one gets the rows
// added, past the linear range through a table built from every row.
func TestEvalIntoUnion(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "a"}, [2]string{"c", "d"})
	db.BuildIndexes()
	cat := cost.NewCatalog(db)
	ctx := context.Background()
	for _, members := range [][]string{
		{"q(X,Y) :- e(X,Y)", "q(X,Z) :- e(X,Y), e(Y,Z)"},
		{"q(X,Y) :- e(X,A), e(B,Y)", "q(X,Y) :- e(X,Y)", "q(X,Z) :- e(X,Y), e(Y,Z)"}, // 12 rows, then repeats
		{"q(X,Y) :- e(X,Y)", "q(X,Y) :- e(X,A), e(B,Y)"},                             // 12 rows, 4 of them repeats
	} {
		into := AcquireRowSet()
		var queries []*cq.Query
		for _, m := range members {
			queries = append(queries, mustQ(m))
			if err := Compile(mustQ(m), cat).EvalIntoCtx(ctx, db, nil, Limits{MaxRows: 12}, into); err != nil {
				t.Fatal(err)
			}
		}
		into.Sort()
		want := EvalUnion(db, &cq.Union{Queries: queries})
		if got := into.Rows(); !slices.EqualFunc(got, want, func(a, b storage.Tuple) bool { return a.Compare(b) == 0 }) {
			t.Fatalf("%v: union = %v, want %v", members, got, want)
		}
		into.Release()
	}
	second := Compile(mustQ("q(X,Z) :- e(X,Y), e(Y,Z)"), cat)
	over := AcquireRowSet()
	defer over.Release()
	if err := second.EvalIntoCtx(ctx, db, nil, Limits{MaxRows: 3}, over); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("4-row plan under a 3-row budget: err = %v", err)
	}
}

// TestRowSetResetClearsArena: reset leaves no value anywhere in the
// arena's capacity — rows, truncated repeats, and what a larger earlier
// use wrote — though it clears only the front the last use wrote to.
func TestRowSetResetClearsArena(t *testing.T) {
	var s RowSet
	for _, rows := range []int{100, 3, 0, 20} {
		for i := 0; i < rows; i++ {
			s.Add([]string{fmt.Sprint("v", i), "w"})
			s.Add([]string{fmt.Sprint("v", i), "w"}) // a repeat, truncated
		}
		var o RowSet // a run's set, traded in by addAll
		o.Add([]string{"o", "p"})
		if rows == 0 {
			s.addAll(&o)
		}
		s.reset()
		o.reset()
		for _, arena := range [][]string{s.vals[:cap(s.vals)], o.vals[:cap(o.vals)]} {
			for i, v := range arena {
				if v != "" {
					t.Fatalf("after %d rows: arena slot %d still holds %q", rows, i, v)
				}
			}
		}
	}
}
