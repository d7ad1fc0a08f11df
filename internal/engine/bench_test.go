package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cq"
	"repro/internal/storage"
)

// benchSetup builds a chain schema r0 ⋈ r1 ⋈ ... with pairwise join views
// and a little data, so that planning (the rewriting search) dominates a
// single evaluation — the regime where the plan cache pays off.
func benchSetup(b *testing.B, n int) (*storage.Database, []*cq.Query, *cq.Query) {
	b.Helper()
	base := storage.NewDatabase()
	for i := 0; i < n; i++ {
		pred := fmt.Sprintf("r%d", i)
		for k := 0; k < 8; k++ {
			t := storage.Tuple{fmt.Sprintf("c%d_%d", i, k), fmt.Sprintf("c%d_%d", i+1, k)}
			if err := base.Insert(pred, t); err != nil {
				b.Fatal(err)
			}
		}
	}
	var viewSrc, bodySrc string
	for i := 0; i+1 < n; i += 2 {
		viewSrc += fmt.Sprintf("v%d(A,B) :- r%d(A,C), r%d(C,B).\n", i/2, i, i+1)
	}
	// Overlapping offset views enlarge the canonical rewriting the cold
	// path must explore without changing the best (cached) plan.
	for i := 1; i+1 < n; i += 2 {
		viewSrc += fmt.Sprintf("w%d(A,B) :- r%d(A,C), r%d(C,B).\n", i/2, i, i+1)
	}
	for i := 0; i < n; i++ {
		viewSrc += fmt.Sprintf("u%d(A,B) :- r%d(A,B).\n", i, i)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			bodySrc += ", "
		}
		bodySrc += fmt.Sprintf("r%d(X%d,X%d)", i, i, i+1)
	}
	views, err := cq.ParseViews(viewSrc)
	if err != nil {
		b.Fatal(err)
	}
	q := cq.MustParseQuery(fmt.Sprintf("q(X0,X%d) :- %s", n, bodySrc))
	return base, views, q
}

// BenchmarkAnswerCold re-plans the query every iteration (fresh engine):
// the cost an application pays without the serving layer.
func BenchmarkAnswerCold(b *testing.B) {
	base, views, q := benchSetup(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewFromBase(base, views, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerWarm serves the same query from one engine: plan-cache hit
// plus evaluation. The ratio to BenchmarkAnswerCold is the cache win.
func BenchmarkAnswerWarm(b *testing.B) {
	base, views, q := benchSetup(b, 8)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Answer(q); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Answer(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerWarmParallel measures the warm path under concurrent load,
// exercising the engine mutex and the frozen indexes.
func BenchmarkAnswerWarmParallel(b *testing.B) {
	base, views, q := benchSetup(b, 8)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Answer(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Answer(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFingerprint isolates the per-request canonicalisation cost — the
// price of a cache probe.
func BenchmarkFingerprint(b *testing.B) {
	_, _, q := benchSetup(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cq.Fingerprint(q)
	}
}

// preparedSetup builds a point-lookup serving scenario: 2000 r tuples, a
// join view, and a constant-selecting query whose template abstracts the
// key.
func preparedSetup(b *testing.B) (*Engine, []*cq.Query) {
	b.Helper()
	base, views := pointBase(b, 2000)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]*cq.Query, 256)
	for i := range queries {
		queries[i] = cq.MustParseQuery(fmt.Sprintf("q(Y) :- r(k%d,Z), s(Z,Y)", i))
	}
	return e, queries
}

// BenchmarkAnswerVaryingConstants streams constant-varying point lookups
// through Answer: template canonicalisation + cache hit + bound execution
// per query (one plan compiled for the whole stream).
func BenchmarkAnswerVaryingConstants(b *testing.B) {
	e, queries := preparedSetup(b)
	if _, err := e.Answer(queries[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Answer(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedExec streams the same lookups through a PreparedQuery:
// no per-request canonicalisation at all, just the bound plan execution —
// the engine's floor for point lookups.
func BenchmarkPreparedExec(b *testing.B) {
	e, queries := preparedSetup(b)
	pq, err := e.Prepare(queries[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Exec(fmt.Sprintf("k%d", i%256)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanMiss is the one-line repro of a plan-cache miss: Prepare
// alternates two templates against a one-entry LRU, so every call plans —
// canonicalise, equivalent search, MiniCon (the second template reaches a
// relation only a filtered view exposes), cost, compile. Run with -benchmem:
// allocs/op is what the repo benchmark's adhoc_plan gates.
func BenchmarkPlanMiss(b *testing.B) {
	base := storage.NewDatabase()
	var viewSrc string
	for i := 1; i <= 4; i++ {
		for k := 0; k < 8; k++ {
			if err := base.Insert(fmt.Sprintf("p%d", i), storage.Tuple{fmt.Sprintf("c%d", k), fmt.Sprintf("c%d", k+1)}); err != nil {
				b.Fatal(err)
			}
		}
		viewSrc += fmt.Sprintf("u%d(A,B) :- p%d(A,B).\n", i, i)
	}
	if err := base.Insert("flag", storage.Tuple{"c0"}); err != nil {
		b.Fatal(err)
	}
	viewSrc += "u5(A,B) :- p5(A,B), flag(A).\n"
	viewSrc += "w0(A,C) :- p1(A,B), p2(B,C).\nw1(A,B,C) :- p2(A,B), p3(B,C).\nw2(A) :- p3(A,B), p4(B,C).\n"
	views, err := cq.ParseViews(viewSrc)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{Strategy: Auto, CacheSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	templates := []*cq.Query{
		cq.MustParseQuery("q(X3) :- p1(c0,X1), p2(X1,X2), p3(X2,X3)"),
		cq.MustParseQuery("q(X3) :- p4(c0,X1), p5(X1,X2), p1(X2,X3)"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Prepare(templates[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := e.Stats(); st.Hits != 0 {
		b.Fatalf("%d plan-cache hits: the benchmark must miss every time", st.Hits)
	}
}

// inverseExecSetup prepares the inverse-rules request path in the shape of
// the repo benchmark's inverse_exec workload: four views that cover
// q(X,Y) :- r(X,Z), s(Z,Y), grp(X,g0) only where Z is in a or in b (v1 hides
// Z, so Skolem terms join r and s), 160 X values in two groups and 80 Z
// values. There is no equivalent rewriting, so every Exec runs the
// inverse-rules fixpoint.
func inverseExecSetup(tb testing.TB) *PreparedQuery {
	tb.Helper()
	const nX, nZ = 160, 80
	base := storage.NewDatabase()
	shape := rand.New(rand.NewSource(1995))
	insert := func(pred string, cols ...string) {
		if err := base.Insert(pred, storage.Tuple(cols)); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < nX; i++ {
		x := fmt.Sprintf("x%d", i)
		z := shape.Intn(nZ)
		insert("r", x, fmt.Sprintf("z%d", z))
		insert("r", x, fmt.Sprintf("z%d", (z+1+shape.Intn(nZ-1))%nZ))
		insert("grp", x, fmt.Sprintf("g%d", i%2))
	}
	for j := 0; j < nZ; j++ {
		z := fmt.Sprintf("z%d", j)
		y := shape.Intn(nZ)
		insert("s", z, fmt.Sprintf("y%d", y))
		insert("s", z, fmt.Sprintf("y%d", y+1))
		switch j % 3 {
		case 0:
			insert("a", z)
		case 1:
			insert("b", z)
		}
	}
	views, err := cq.ParseViews(`
		v1(X,Y) :- r(X,Z), s(Z,Y), a(Z).
		v2(X,Z) :- r(X,Z), b(Z).
		v3(Z,Y) :- s(Z,Y), b(Z).
		v4(X,G) :- grp(X,G).`)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{Strategy: InverseRules})
	if err != nil {
		tb.Fatal(err)
	}
	pq, err := e.Prepare(cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y), grp(X,g0)"))
	if err != nil {
		tb.Fatal(err)
	}
	if pq.Plan().Kind != PlanInverseProgram {
		tb.Fatalf("plan kind %v, want the inverse-rules program", pq.Plan().Kind)
	}
	return pq
}

// BenchmarkInverseExec is the one-line repro of the inverse-rules request
// path: one prepared Exec, which evaluates the compiled inverse-rules
// program to its fixpoint and filters the certain answers. Run with
// -benchmem: allocs/op is what the repo benchmark's inverse_exec gates.
func BenchmarkInverseExec(b *testing.B) {
	pq := inverseExecSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestLiveEngineFootprint guards the heap a live engine keeps in the shape
// of the repo benchmark's point_exec workload: 20 000 r tuples, 20 000 s
// tuples and one join view. The maintainer's base relations share the
// caller's tables until a batch writes them; the two serving sides hold
// the extent, over one set of rows since stored tuples are shared and over
// one set of tables until the first batch, since the standby side is a
// copy-on-write clone; and the maintainer shares the side it maintains
// instead of keeping a third copy. Each relation deduplicates through a
// table of tuple positions, not a map of key strings, and its column
// indexes chain positions instead of keeping a map of values to position
// slices. While each side held its own tables the engine kept 12.98 MiB;
// 14.2 MiB while each side held its own copy of every row; with the value
// maps 21.1 MiB (25.2 MiB with the key-string map too, 32.7 MiB with a
// third extent copy, 50.6 MiB when both sides also held the base
// relations). A served relation indexes only the columns something probes,
// at their first probe, and construction probes only the join column the
// materialization reads, so no index of the extent is built at boot. The
// budget is the footprint measured since then, 7.95 MiB, plus a tenth;
// while every served column was indexed at boot it was 10.12 MiB, budget
// 11.2.
//
// The first delete is the first write to the extent, so it gives each
// serving side tables of its own, and its maintenance probes build the
// indexes it reads first (DRed's probes of the base relations and of the
// extent). Boot and first delete together may keep no more than they kept
// while every column was indexed at boot, 10.12 + 2.81 MiB; the delete's
// growth and what one copy of the extent's tables costs are logged. While
// flat view sets were maintained by derivation counting, the first delete
// built a string-keyed count for every extent tuple and grew the heap by
// 2.28 MiB more.
func TestLiveEngineFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap footprints are not meaningful under the race detector")
	}
	const nR, nZ = 20000, 10000
	var before, after, copied, deleted runtime.MemStats
	var victim storage.Tuple
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := func() *Engine {
		base := storage.NewDatabase()
		shape := rand.New(rand.NewSource(1995))
		for i := 0; i < nR; i++ {
			base.Insert("r", storage.Tuple{fmt.Sprintf("k%d", i), fmt.Sprintf("z%d", shape.Intn(nZ))})
		}
		victim = base.Relation("r").Tuples()[0].Clone()
		for j := 0; j < nZ; j++ {
			y := shape.Intn(nZ)
			base.Insert("s", storage.Tuple{fmt.Sprintf("z%d", j), fmt.Sprintf("y%d", y)})
			base.Insert("s", storage.Tuple{fmt.Sprintf("z%d", j), fmt.Sprintf("y%d", y+1)})
		}
		views, err := cq.ParseViews("v(K,Y) :- r(K,Z), s(Z,Y).")
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewFromBase(base, views, Options{Strategy: Auto, LiveUpdates: true})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}()
	runtime.GC()
	runtime.ReadMemStats(&after)
	mib := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(e)
	t.Logf("live engine footprint: %.2f MiB", mib)
	if mib > 8.75 {
		t.Fatalf("live engine keeps %.2f MiB, budget 8.75", mib)
	}

	// What one copy of the extent's tables costs: a clone's first write
	// copies them, and Grow(0) is a write that changes nothing else.
	probe := e.Database().Clone()
	probe.Relation("v").Grow(0)
	runtime.GC()
	runtime.ReadMemStats(&copied)
	tables := float64(int64(copied.HeapAlloc)-int64(after.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(probe)
	runtime.GC()
	runtime.ReadMemStats(&after)

	extent := e.Database().Relation("v").Len()
	if err := e.ApplyUpdate(nil, map[string][]storage.Tuple{"r": {victim}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Database().Relation("v").Len(); got >= extent {
		t.Fatalf("deleting r%v left the extent at %d tuples, was %d", victim, got, extent)
	}
	runtime.GC()
	runtime.ReadMemStats(&deleted)
	grow := float64(int64(deleted.HeapAlloc)-int64(after.HeapAlloc)) / (1 << 20)
	runtime.KeepAlive(e)
	t.Logf("first delete grows the heap by %.2f MiB; one copy of the extent's tables is %.2f MiB", grow, tables)
	const eager = 10.12 + 2.81
	if mib+grow > eager {
		t.Fatalf("boot (%.2f MiB) and first delete (%.2f MiB) keep %.2f MiB, more than the %.2f MiB they kept with every column indexed at boot", mib, grow, mib+grow, eager)
	}
}

// TestInverseExecAllocs guards what one inverse-rules Exec allocates. Before
// the fixpoint was stratified and derived tuples came from an arena the
// count was 4 691; 2 381 before each derived relation's column index was a
// chain of positions, 1 806 while derived tuples were deduplicated by
// Tuple.Key strings, and 1 017 (budget 1 170) while every kept row with
// Skolem values allocated a string of its own and each rule-variant
// execution grew a fresh derivation buffer. The count measured since
// Skolem values share an arena and derivation buffers are pooled was 104;
// it is 105 since the certain answers are added into the executor's pooled
// row set and sorted there, because Exec copies them out in two
// allocations where the filter allocated one slice (a server reply, written
// from the set, allocates neither). The budget, 120, leaves about a
// seventh of headroom.
func TestInverseExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pq := inverseExecSetup(t)
	rows, err := pq.Exec()
	if err != nil || len(rows) == 0 {
		t.Fatalf("Exec: %d rows, err %v", len(rows), err)
	}
	if n := testing.AllocsPerRun(20, func() { pq.Exec() }); n > 120 {
		t.Fatalf("inverse-rules Exec: %.0f allocs/op, budget 120", n)
	}
}
