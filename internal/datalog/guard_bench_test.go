package datalog

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/cost"
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
