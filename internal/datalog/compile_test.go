package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// checkAgreement verifies every evaluation route against the unoptimised
// reference EvalQueryNaive on one (db, q) instance.
func checkAgreement(t *testing.T, db *storage.Database, q *cq.Query, label string) {
	t.Helper()
	want := EvalQueryNaive(db, q)
	plan := Compile(q, cost.NewCatalog(db))
	if got := plan.EvalParallelUnsortedWith(db, nil, 1); !storage.TuplesEqual(got, want) {
		t.Fatalf("%s: compiled run disagrees with naive\nquery: %s\nplan:\n%s got %v\nwant %v",
			label, q, plan.Describe(), got, want)
	}
	if got := EvalQuery(db, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("%s: EvalQuery disagrees with naive\nquery: %s\ngot %v\nwant %v", label, q, got, want)
	}
}

// TestCompiledMatchesNaiveRandom is the differential property test of the
// compiled executor: on randomized workloads — varying connectivity (many
// are disconnected), random constants, comparison predicates and Skolem
// values in the data — every route must agree exactly with EvalQueryNaive.
func TestCompiledMatchesNaiveRandom(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 120
	}
	rng := rand.New(rand.NewSource(71))
	preds := []string{"p1", "p2", "p3"}
	for trial := 0; trial < trials; trial++ {
		reuse := []float64{0, 0.3, 0.6}[trial%3]
		q := workload.RandomQuery(rng, 2+rng.Intn(4), len(preds), reuse)
		db := workload.RandomDatabase(rng, preds, 2, 10+rng.Intn(15), 6+rng.Intn(6))

		// The naive reference enumerates disconnected bodies as a full
		// cross product; bound its worst case so the test stays fast.
		naiveCost := 1
		for _, a := range q.Body {
			if r := db.Relation(a.Pred); r != nil {
				naiveCost *= r.Len()
			}
		}
		if naiveCost > 200_000 {
			continue
		}

		// Sprinkle Skolem values into the data: they join by ordinary
		// equality and must flow through slots like any constant.
		for i := 0; i < 4; i++ {
			p := preds[rng.Intn(len(preds))]
			sk := fmt.Sprintf("⟨f%d:c%d⟩", rng.Intn(2), rng.Intn(5))
			db.Insert(p, storage.Tuple{sk, fmt.Sprintf("c%d", rng.Intn(8))})
			db.Insert(p, storage.Tuple{fmt.Sprintf("c%d", rng.Intn(8)), sk})
		}

		// Replace a random body argument by a constant (index probes by
		// constant, constant checks on scan fallback).
		if rng.Intn(2) == 0 {
			a := rng.Intn(len(q.Body))
			q.Body[a].Args[rng.Intn(2)] = cq.Const(fmt.Sprintf("c%d", rng.Intn(8)))
		}

		// Attach random comparisons over body variables.
		var bodyVars []cq.Term
		seen := map[string]bool{}
		for _, a := range q.Body {
			for _, arg := range a.Args {
				if arg.IsVar() && !seen[arg.Lex] {
					seen[arg.Lex] = true
					bodyVars = append(bodyVars, arg)
				}
			}
		}
		for i := rng.Intn(3); i > 0 && len(bodyVars) > 0; i-- {
			l := bodyVars[rng.Intn(len(bodyVars))]
			var r cq.Term
			if rng.Intn(3) == 0 {
				r = cq.Const(fmt.Sprintf("c%d", rng.Intn(8)))
			} else {
				r = bodyVars[rng.Intn(len(bodyVars))]
			}
			op := cq.CompOp(rng.Intn(6))
			q.AddComparison(cq.NewComparison(l, op, r))
		}

		checkAgreement(t, db, q, fmt.Sprintf("trial %d", trial))
	}
}

// TestCompiledOrderDiscountsBoundColumns: with X bound, r(X,Y) (1 000
// rows, 1 000 distinct X) yields one candidate and s(X,Z) (100 rows, one
// distinct X) a hundred, so the plan joins r first, and Estimate prices
// that order (1 + 100) rather than s first (100 + 100), the order by rows
// alone.
func TestCompiledOrderDiscountsBoundColumns(t *testing.T) {
	cat := cost.NewCatalog(storage.NewDatabase())
	cat.SetRelation("r", 1000, []float64{1000, 1000})
	cat.SetRelation("s", 100, []float64{1, 100})
	q := mustQ("q(Y,Z) :- r(X,Y), s(X,Z)")
	p := CompileParams(q, []string{"X"}, cat)
	if steps := p.components[0].steps; steps[0].pred != "r" || steps[1].pred != "s" {
		t.Fatalf("compiled order:\n%s want r before s", p.Describe())
	}
	if est := Estimate(q, []string{"X"}, cat); est.Cost != 101 || est.Cardinality != 100 {
		t.Fatalf("estimate %+v, want cost 101 and cardinality 100 (r before s)", est)
	}
}

// TestCompiledDisconnected covers the decomposition shapes explicitly:
// cross products, existence-only components, and constant-only heads.
func TestCompiledDisconnected(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 5; i++ {
		db.Insert("a", storage.Tuple{fmt.Sprintf("x%d", i)})
		db.Insert("b", storage.Tuple{fmt.Sprintf("y%d", i)})
	}
	db.Insert("c", storage.Tuple{"only"})
	for _, src := range []string{
		"q(X,Y) :- a(X), b(Y)",
		"q(X) :- a(X), b(Y)",
		"q(X) :- a(X), b(Y), c(Z)",
		"q(tag) :- a(X), b(Y)",
		"q(X) :- a(X), nope(Y)",
		"q(X,Y) :- a(X), b(Y), X != Y",
	} {
		checkAgreement(t, db, cq.MustParseQuery(src), src)
	}
}

// TestCompiledGroundComparisons checks compile-time decided comparisons.
func TestCompiledGroundComparisons(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", storage.Tuple{"1"})
	for _, src := range []string{
		"q(X) :- r(X), 1 < 2",
		"q(X) :- r(X), 2 < 1",
		"q(X) :- r(X), 'a' = 'a'",
	} {
		checkAgreement(t, db, cq.MustParseQuery(src), src)
	}
}

// TestCompiledComparisonDepth asserts the comparison runs before the leaf:
// in a chain join it must be attached to the step that binds its variables,
// not re-checked per full binding.
func TestCompiledComparisonDepth(t *testing.T) {
	q := cq.MustParseQuery("q(X,Z) :- e(X,Y), f(Y,Z), X < Y")
	plan := Compile(q, nil)
	desc := plan.Describe()
	lines := strings.Split(strings.TrimSpace(desc), "\n")
	if len(lines) < 3 {
		t.Fatalf("unexpected plan:\n%s", desc)
	}
	// Step 1 joins e(X,Y) and binds both comparison variables.
	if !strings.Contains(lines[1], "comparisons=1") {
		t.Fatalf("comparison not attached to its earliest bound depth:\n%s", desc)
	}
	if strings.Contains(lines[2], "comparisons") {
		t.Fatalf("comparison leaked to the leaf:\n%s", desc)
	}
}

// TestCompiledDontCareDedup checks that don't-care columns do not multiply
// the join work: the step-level dedup is the projection pushdown.
func TestCompiledDontCareDedup(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 50; i++ {
		db.Insert("v", storage.Tuple{"k", fmt.Sprintf("junk%d", i)})
	}
	db.Insert("w", storage.Tuple{"k"})
	q := cq.MustParseQuery("q(X) :- v(X,J), w(X)")
	checkAgreement(t, db, q, "dont-care")
	// The join form turns the don't-care atom into an existential step
	// (first match decides) because w is smaller and joins first…
	plan := Compile(q, cost.NewCatalog(db))
	if !strings.Contains(plan.Describe(), "existential") {
		t.Fatalf("expected an existential step for the don't-care atom:\n%s", plan.Describe())
	}
	// …while a binding step with a don't-care column gets step dedup.
	q2 := cq.MustParseQuery("q(X) :- v(X,J)")
	checkAgreement(t, db, q2, "dont-care root")
	plan2 := Compile(q2, cost.NewCatalog(db))
	if !strings.Contains(plan2.Describe(), "dedup") {
		t.Fatalf("expected a dedup step for the don't-care column:\n%s", plan2.Describe())
	}
}

// TestDontCareDedupKeepsCollidingBindings: the step dedup of a binding step
// with a don't-care column tells apart two bindings whose values joined by
// 0x1f coincide, ("a\x1fb","c") and ("a","b\x1fc"): both reach the answer.
func TestDontCareDedupKeepsCollidingBindings(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", storage.Tuple{"a\x1fb", "c", "1"})
	db.Insert("r", storage.Tuple{"a", "b\x1fc", "2"})
	q := cq.MustParseQuery("q(X,Y) :- r(X,Y,Z)")
	if plan := Compile(q, cost.NewCatalog(db)); !strings.Contains(plan.Describe(), "dedup") {
		t.Fatalf("expected a dedup step for the don't-care column:\n%s", plan.Describe())
	}
	want := []storage.Tuple{{"a\x1fb", "c"}, {"a", "b\x1fc"}}
	if got := EvalQuery(db, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("EvalQuery = %q, want %q", got, want)
	}
	checkAgreement(t, db, q, "colliding bindings")
}

// TestStepDedupKeepsDistinctBindings: the step dedup, a table of candidate
// positions hashed by the bound columns, tells apart bindings whose values
// concatenate alike — ("a","bc") and ("ab","c") — empty values, and values
// holding 0x1f, at the root and at an inner probed step, while candidates
// that repeat a binding are still skipped; compiled equals naive.
func TestStepDedupKeepsDistinctBindings(t *testing.T) {
	db := storage.NewDatabase()
	bindings := []storage.Tuple{
		{"a", "bc"}, {"ab", "c"}, {"", ""}, {"", "a"}, {"a", ""},
		{"a\x1f", "b"}, {"a", "\x1fb"}, {"\x1f", ""}, {"", "\x1f"},
	}
	for i, b := range bindings {
		for j := 0; j < 3; j++ { // three candidates per binding
			db.Insert("r", storage.Tuple{b[0], b[1], fmt.Sprint(i, "/", j)})
		}
		db.Insert("s", storage.Tuple{b[0]})
	}
	for _, src := range []string{
		"q(X,Y) :- r(X,Y,Z)",
		"q(X,Y) :- s(X), r(X,Y,Z)",
		"q(X) :- r(X,Y,Z), s(Y)",
	} {
		q := cq.MustParseQuery(src)
		plan := Compile(q, cost.NewCatalog(db))
		if !strings.Contains(plan.Describe(), "dedup") {
			t.Fatalf("%s: expected a dedup step:\n%s", src, plan.Describe())
		}
		checkAgreement(t, db, q, src)
	}
	if got := EvalQuery(db, cq.MustParseQuery("q(X,Y) :- r(X,Y,Z)")); !storage.TuplesEqual(got, bindings) {
		t.Fatalf("EvalQuery = %q, want %q", got, bindings)
	}
}

// TestStepDedupAllocs guards what BenchmarkEvalDontCare's compiled route
// allocates: 66 783 objects while each deduplicating step loop kept a map
// of its bindings' encoded strings, one string per distinct binding; 1 804
// since it keeps a table of candidate positions, growing by doubling. The
// budget leaves about a tenth of headroom.
func TestStepDedupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db, q := dontCareShape()
	db.BuildIndexes()
	plan := Compile(q, cost.NewCatalog(db))
	if n := testing.AllocsPerRun(3, func() { plan.EvalParallelUnsortedWith(db, nil, 1) }); n > 2000 {
		t.Fatalf("don't-care plan: %.0f allocs/op, budget 2000", n)
	}
}

// TestEvalParallelUnfrozenNeverMutates exercises the scan fallback under
// the race detector: the database is never frozen, so any lazy index build
// inside the executor would be a data race across these goroutines.
func TestEvalParallelUnfrozenNeverMutates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := workload.RandomDatabase(rng, []string{"p1", "p2"}, 2, 200, 20)
	q := cq.MustParseQuery("q(X,Z) :- p1(X,Y), p2(Y,Z)")
	plan := Compile(q, nil)
	want := plan.EvalParallelUnsortedWith(db, nil, 1)
	assertUnindexed(t, db.Relation("p1"), "the compiled executor")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := plan.EvalParallelUnsortedWith(db, nil, 1); !storage.TuplesEqual(got, want) {
					t.Errorf("concurrent run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvalParallelFrozenConcurrent is the fast path under the race
// detector: frozen relations, indexed probes, many concurrent evaluations.
func TestEvalParallelFrozenConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := workload.ChainDatabase(rng, 4, true, 300, 40)
	db.BuildIndexes()
	q := workload.ChainQuery(4, true)
	plan := Compile(q, cost.NewCatalog(db))
	want := EvalQueryNaive(db, q)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := plan.EvalParallelUnsortedWith(db, nil, 1); !storage.TuplesEqual(got, want) {
					t.Errorf("concurrent run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}
