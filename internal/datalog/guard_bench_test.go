package datalog

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/storage"
)

// BenchmarkGuardOverhead measures what the cancellation guard costs: each
// workload's legacy (guard-free) entry point against its Ctx twin carrying
// a live guard, reported as overhead_pct. CI gates it at 3 % with
// -benchtime=13x; one iteration is one legacy/governed pair, so the
// -benchtime=1x smoke costs a single pair per workload.
func BenchmarkGuardOverhead(b *testing.B) {
	// ctx is cancelable but never canceled: newGuardState sees ctx.Done()
	// non-nil and arms the guard, so every row pays the real amortized
	// check — the honest serving-path cost of a request with a deadline.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := runtime.GOMAXPROCS(0)

	// serve_join: the guard cost lands on the per-candidate-row tick in the
	// innermost probe loop.
	db := serveJoinDB(100000, 40000, 500000)
	db.BuildIndexes()
	plan := Compile(mustQ("q(Y,Z) :- p1(W,X), p2(X,Y), p3(Y,Z)"), cost.NewCatalog(db))
	b.Run("serve_join", func(b *testing.B) {
		guardOverhead(b,
			func() error { plan.EvalParallel(db, workers); return nil },
			func() error {
				_, err := plan.EvalParallelCtx(ctx, db, nil, workers, Limits{})
				return err
			})
	})

	// tc_chain: the guard cost lands on the per-derivation tick plus one
	// poll per round barrier.
	edges := tcChainDB()
	edges.BuildIndexes()
	cp, err := CompileProgram(tcProgram(), cost.NewCatalog(edges))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tc_chain", func(b *testing.B) {
		guardOverhead(b,
			func() error { _, err := cp.EvalParallel(edges, workers); return err },
			func() error { _, err := cp.EvalCtx(ctx, edges, workers, Limits{}); return err })
	})
}

// guardOverhead runs legacy and governed back to back b.N times (the side
// that goes first alternates per pair) and reports the median of the
// per-pair governed/legacy ratios: the two runs of a pair share the host's
// clock speed, cache and GC state, so slow drift — which on these workloads
// swings single runs by ±20% — cancels out of each ratio, and the median
// discards the pairs where a GC cycle landed on one side. Best-of on each
// side independently does not have this property: it compares a lucky run
// of one side against a lucky run of the other, taken under different host
// states.
func guardOverhead(b *testing.B, legacy, governed func() error) {
	// One sample = two consecutive runs from a freshly collected heap: the
	// forced GC equalizes the allocator state both sides start from, and
	// summing two runs averages over where the in-run GC cycles land.
	sample := func(f func() error) float64 {
		runtime.GC()
		start := time.Now()
		for i := 0; i < 2; i++ {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
		return float64(time.Since(start))
	}
	ratios := make([]float64, b.N)
	for i := range ratios {
		var leg, gov float64
		if i%2 == 0 {
			leg, gov = sample(legacy), sample(governed)
		} else {
			gov, leg = sample(governed), sample(legacy)
		}
		ratios[i] = gov / leg
	}
	sort.Float64s(ratios)
	b.ReportMetric((ratios[len(ratios)/2]-1)*100, "overhead_pct")
}

// serveJoinDB builds the join-heavy serving workload q(Y,Z) :- p1(W,X),
// p2(X,Y), p3(Y,Z) with n1, n2 and n3 tuples: a guarded fan-out join where
// the flat evaluator's time goes to candidate-list walks over p3 and the
// head carries the routing slot (disjoint tasks).
func serveJoinDB(n1, n2, n3 int) *storage.Database {
	rng := rand.New(rand.NewSource(91))
	w, x, k, z := n1*5/2, n1*3/4, n1/4, n3*5/2
	db := storage.NewDatabase()
	for i := 0; i < n1; i++ {
		db.Insert("p1", storage.Tuple{"w" + fmt.Sprint(rng.Intn(w)), "x" + fmt.Sprint(rng.Intn(x))})
	}
	for i := 0; i < n2; i++ {
		db.Insert("p2", storage.Tuple{"x" + fmt.Sprint(rng.Intn(x)), "k" + fmt.Sprint(rng.Intn(k))})
	}
	for i := 0; i < n3; i++ {
		db.Insert("p3", storage.Tuple{"k" + fmt.Sprint(rng.Intn(k)), "z" + fmt.Sprint(rng.Intn(z))})
	}
	return db
}

// tcChainDB builds the recursive fixpoint workload: a 400-node chain with
// 200 random skip edges, closed by tc.
func tcChainDB() *storage.Database {
	rng := rand.New(rand.NewSource(93))
	edges := storage.NewDatabase()
	const chain = 400
	for i := 0; i < chain; i++ {
		edges.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
	}
	for i := 0; i < 200; i++ {
		from := rng.Intn(chain)
		edges.Insert("e", storage.Tuple{fmt.Sprint(from), fmt.Sprint(from + 1 + rng.Intn(6))})
	}
	return edges
}
