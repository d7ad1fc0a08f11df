package datalog

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Tests of the pooled run scratch behind enumerateComponent.

// probeDB holds v(K,Y) with fan rows per key: key k<i> maps to y<i>_<j>,
// plus — when dup is set — a third don't-care column that makes every
// (K,Y) pair appear twice.
func probeDB(keys, fan int, dup bool) *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < keys; i++ {
		for j := 0; j < fan; j++ {
			k, y := fmt.Sprintf("k%d", i), fmt.Sprintf("y%d_%d", i, j)
			if dup {
				db.Insert("v", storage.Tuple{k, y, "a"})
				db.Insert("v", storage.Tuple{k, y, "b"})
			} else {
				db.Insert("v", storage.Tuple{k, y})
			}
		}
	}
	db.BuildIndexes()
	return db
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestProbeAllocs is the allocation guard of the executor under the serving
// path: a run returns its rows in two exact-size allocations — one backing
// array of values, one slice of tuples — and pays nothing per run for
// frame, step sources, row set or the emit closure, and nothing per row. A
// worker count the root candidates clamp back to one takes the same path.
// The budgets are the measured counts plus two; a two-step join returning
// 200 rows costs exactly what one returning 20 rows costs.
func TestProbeAllocs(t *testing.T) {
	for _, tc := range []struct{ fan, workers, measured int }{{2, 1, 2}, {1, 4, 2}} {
		db := probeDB(100, tc.fan, false)
		plan := CompileParams(cq.MustParseQuery("q(Y) :- v(K,Y)"), []string{"K"}, cost.NewCatalog(db))
		args := []string{"k42"}
		rows, err := plan.EvalParallelCtx(context.Background(), db, args, tc.workers, Limits{})
		if err != nil || len(rows) != tc.fan || rows[0][0] != "y42_0" {
			t.Fatalf("rows = %v, err = %v", rows, err)
		}
		if raceEnabled {
			continue // allocation counts are not meaningful under the race detector
		}
		n := testing.AllocsPerRun(200, func() {
			if _, err := plan.EvalParallelCtx(context.Background(), db, args, tc.workers, Limits{}); err != nil {
				t.Fatal(err)
			}
		})
		if n > float64(tc.measured+2) {
			t.Fatalf("%d-row probe, %d worker(s): %.0f allocs/op, budget %d", tc.fan, tc.workers, n, tc.measured+2)
		}
	}

	const measured = 2
	allocs := make(map[int]float64)
	for _, fan := range []int{20, 200} {
		db := joinDB(4, fan)
		plan := CompileParams(cq.MustParseQuery("q(Y,W) :- v(K,Y), w(Y,W)"), []string{"K"}, cost.NewCatalog(db))
		args := []string{"k2"}
		rows, err := plan.EvalParallelCtx(context.Background(), db, args, 1, Limits{})
		if err != nil || len(rows) != fan {
			t.Fatalf("%d-row join: %d rows, err = %v", fan, len(rows), err)
		}
		if raceEnabled {
			continue
		}
		allocs[fan] = testing.AllocsPerRun(200, func() {
			if _, err := plan.EvalParallelCtx(context.Background(), db, args, 1, Limits{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs[fan] > measured+2 {
			t.Fatalf("%d-row join: %.0f allocs/op, budget %d", fan, allocs[fan], measured+2)
		}
	}
	if allocs[20] != allocs[200] {
		t.Fatalf("join allocations grow with the rows: 20 rows %.0f allocs/op, 200 rows %.0f", allocs[20], allocs[200])
	}
}

// joinDB holds v(K,Y) with fan rows per key and w(Y,W) with one row per Y.
func joinDB(keys, fan int) *storage.Database {
	db := probeDB(keys, fan, false)
	for i := 0; i < keys; i++ {
		for j := 0; j < fan; j++ {
			y := fmt.Sprintf("y%d_%d", i, j)
			db.Insert("w", storage.Tuple{y, "w" + y})
		}
	}
	db.BuildIndexes()
	return db
}

// TestDedupAcrossTheLinearRange: duplicates are dropped on both sides of
// linearDedupRows, at the switch from comparing to hashing, across the row
// set's table growth points, and past the size a pooled set keeps.
func TestDedupAcrossTheLinearRange(t *testing.T) {
	const l = linearDedupRows
	for _, fan := range []int{1, l - 1, l, l + 1, 3 * l, 2 * l, 2*l + 1, 4 * l, 4*l + 1, 8*l + 1, maxPooledVals/2 + 1} {
		db := probeDB(3, fan, true)
		db.Insert("c", storage.Tuple{"a"})
		db.Insert("c", storage.Tuple{"b"})
		db.BuildIndexes()
		// Z joins c, so no step drops it as a don't-care: every answer
		// reaches the row set twice, once through each Z.
		q := cq.MustParseQuery("q(Y,K) :- v(K,Y,Z), c(Z)")
		plan := CompileParams(q, []string{"K"}, cost.NewCatalog(db))
		for run := 0; run < 3; run++ { // reuse the pooled scratch
			got := plan.EvalWith(db, []string{"k1"})
			want := EvalQueryNaive(db, instantiate(q, []string{"K"}, []string{"k1"}))
			if len(got) != fan || !storage.TuplesEqual(got, want) {
				t.Fatalf("fan %d run %d: got %d rows, want %d", fan, run, len(got), len(want))
			}
		}
	}
}

// TestRowBudgetThroughPooledGuard: the row budget trips through the pooled guard,
// and a tripped run leaves the scratch clean for the next.
func TestRowBudgetThroughPooledGuard(t *testing.T) {
	db := probeDB(4, 6, false)
	plan := CompileParams(cq.MustParseQuery("q(Y) :- v(K,Y)"), []string{"K"}, cost.NewCatalog(db))
	if _, err := plan.EvalParallelCtx(context.Background(), db, []string{"k2"}, 1, Limits{MaxRows: 5}); err == nil {
		t.Fatal("6 rows under a budget of 5: no error")
	}
	rows, err := plan.EvalParallelCtx(context.Background(), db, []string{"k3"}, 1, Limits{MaxRows: 6})
	if err != nil || len(rows) != 6 {
		t.Fatalf("rows = %v, err = %v", rows, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.EvalParallelCtx(ctx, db, []string{"k3"}, 1, Limits{}); err != ErrCanceled {
		t.Fatalf("canceled context: err = %v", err)
	}
}

// TestScratchPoolConcurrent hammers the scratch pool from 8 goroutines with
// differing arguments over two plans of different frame widths and step
// counts, sequentially and with the root loop sharded over forked scratches
// (run under -race): every run must see its own binding and return rows no
// other run touches.
func TestScratchPoolConcurrent(t *testing.T) {
	const keys, goroutines = 64, 8
	fanOf := func(i int) int { return 1 + i%(2*linearDedupRows) } // both dedup modes
	db := storage.NewDatabase()
	for i := 0; i < keys; i++ {
		for j := 0; j < fanOf(i); j++ {
			y := fmt.Sprintf("y%d_%02d", i, j)
			db.Insert("v", storage.Tuple{fmt.Sprintf("k%d", i), y, "a"})
			db.Insert("v", storage.Tuple{fmt.Sprintf("k%d", i), y, "b"})
			db.Insert("w", storage.Tuple{y, "w" + y})
		}
	}
	db.BuildIndexes()
	cat := cost.NewCatalog(db)
	probe := CompileParams(cq.MustParseQuery("q(K,Y) :- v(K,Y,Z)"), []string{"K"}, cat)
	join := CompileParams(cq.MustParseQuery("q(K,Y,W) :- v(K,Y,Z), w(Y,W)"), []string{"K"}, cat)
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background()) // a live guard
			defer cancel()
			for it := 0; it < iters; it++ {
				i := (g*31 + it*7) % keys
				key := fmt.Sprintf("k%d", i)
				plan := probe
				if (g+it)%2 == 1 {
					plan = join
				}
				rows, err := plan.EvalParallelCtx(ctx, db, []string{key}, 1+3*(it/2%2), Limits{})
				if err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				if len(rows) != fanOf(i) {
					t.Errorf("%s: %d rows, want %d", key, len(rows), fanOf(i))
					return
				}
				for j, r := range rows {
					y := fmt.Sprintf("y%d_%02d", i, j)
					want := storage.Tuple{key, y}
					if plan == join {
						want = append(want, "w"+y)
					}
					if r.Compare(want) != 0 {
						t.Errorf("%s row %d = %v, want %v", key, j, r, want)
						return
					}
					r[1] = "scribbled" // results belong to the caller alone
				}
			}
		}(g)
	}
	wg.Wait()
}
