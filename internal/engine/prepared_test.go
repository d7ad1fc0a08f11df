package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// pointBase builds a base of n r/s chain tuples for point-lookup streams:
// r(k<i>, m<i%40>), s(m<j>, x<j%7>), with views covering the join and the
// single relations.
func pointBase(t testing.TB, n int) (*storage.Database, []*cq.Query) {
	t.Helper()
	base := storage.NewDatabase()
	for i := 0; i < n; i++ {
		base.Insert("r", storage.Tuple{fmt.Sprintf("k%d", i), fmt.Sprintf("m%d", i%40)})
	}
	for j := 0; j < 40; j++ {
		base.Insert("s", storage.Tuple{fmt.Sprintf("m%d", j), fmt.Sprintf("x%d", j%7)})
	}
	views, err := cq.ParseViews(`
		v(A,B)  :- r(A,C), s(C,B).
		vr(A,B) :- r(A,B).
		vs(A,B) :- s(A,B).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return base, views
}

// TestTemplateCacheSharesPointLookupStream is the acceptance criterion: a
// 1000-query stream of point lookups differing only in their constant
// compiles exactly one plan — one cache miss, 999 template hits.
func TestTemplateCacheSharesPointLookupStream(t *testing.T) {
	base, views := pointBase(t, 1000)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		q := cq.MustParseQuery(fmt.Sprintf("q(Y) :- r(k%d,Z), s(Z,Y)", i))
		got, err := e.Answer(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := datalog.EvalQuery(base, q)
		if !storage.TuplesEqual(got, want) {
			t.Fatalf("query %d: got %v want %v", i, got, want)
		}
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 999 {
		t.Fatalf("stats = %d misses / %d hits, want 1/999 (one plan per template)", st.Misses, st.Hits)
	}
	if st.CacheLen != 1 {
		t.Fatalf("cache holds %d plans, want 1", st.CacheLen)
	}
	agg := st.PerStrategy[EquivalentFirst]
	if agg.Plans != 1 || agg.Hits != 999 {
		t.Fatalf("per-strategy = %+v, want 1 plan and 999 attributed hits", agg)
	}
}

func TestPrepareExec(t *testing.T) {
	base, views := pointBase(t, 50)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Prepare(cq.MustParseQuery("q(Y) :- r(k3,Z), s(Z,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if pq.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", pq.NumParams())
	}
	if args := pq.Args(); len(args) != 1 || args[0] != "k3" {
		t.Fatalf("Args = %v, want [k3]", args)
	}
	// Default binding reproduces Answer of the original query.
	got, err := pq.Exec(pq.Args()...)
	if err != nil {
		t.Fatal(err)
	}
	want := datalog.EvalQuery(base, cq.MustParseQuery("q(Y) :- r(k3,Z), s(Z,Y)"))
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("Exec(k3) = %v, want %v", got, want)
	}
	// A fresh binding answers the other query without touching the cache.
	got, err = pq.Exec("k7")
	if err != nil {
		t.Fatal(err)
	}
	want = datalog.EvalQuery(base, cq.MustParseQuery("q(Y) :- r(k7,Z), s(Z,Y)"))
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("Exec(k7) = %v, want %v", got, want)
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	// Arity mismatches are errors, not panics.
	if _, err := pq.Exec(); err == nil {
		t.Fatal("Exec with missing argument accepted")
	}
	if _, err := pq.Exec("a", "b"); err == nil {
		t.Fatal("Exec with surplus arguments accepted")
	}
}

// TestEvalRejectsParameterizedPlan: a plan whose query has constants is
// parameterized, and its binding is not part of the plan — Exec without
// the arguments is refused, and with them it answers what Answer does.
func TestEvalRejectsParameterizedPlan(t *testing.T) {
	base, views := pointBase(t, 10)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(Y) :- r(k1,Z), s(Z,Y)")
	pq, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p := pq.Plan(); len(p.Params) != 1 {
		t.Fatalf("plan params = %v, want one placeholder", p.Params)
	}
	if _, err := pq.Exec(); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("Exec without the binding: err = %v, want ErrArityMismatch", err)
	}
	got, err := pq.Exec(pq.Args()...)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustAnswer(t, e, q); len(want) == 0 || !storage.TuplesEqual(got, want) {
		t.Fatalf("Exec with the binding = %v, Answer = %v", got, want)
	}
}

// TestPreparedExecMatchesAnswer is the randomized differential: for every
// strategy, prepared Exec under random bindings must agree with Answer of
// the concrete query and with direct evaluation over base.
func TestPreparedExecMatchesAnswer(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	base, views := pointBase(t, 120)
	rng := rand.New(rand.NewSource(17))
	shapes := []string{
		"q(Y) :- r(%s,Z), s(Z,Y)",
		"q(X) :- r(X,Z), s(Z,%s)",
		"q(X,Y) :- r(X,%s), s(%s,Y)", // two params, possibly equal
	}
	for _, strat := range Strategies() {
		e, err := NewFromBase(base, views, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for trial := 0; trial < trials; trial++ {
			shape := shapes[rng.Intn(len(shapes))]
			var consts []any
			switch shape {
			case shapes[0]:
				consts = []any{fmt.Sprintf("k%d", rng.Intn(140))}
			case shapes[1]:
				consts = []any{fmt.Sprintf("x%d", rng.Intn(9))}
			default:
				a := fmt.Sprintf("m%d", rng.Intn(45))
				b := a
				if rng.Intn(2) == 0 {
					b = fmt.Sprintf("m%d", rng.Intn(45))
				}
				consts = []any{a, b}
			}
			q := cq.MustParseQuery(fmt.Sprintf(shape, consts...))
			pq, err := e.Prepare(q)
			if err != nil {
				t.Fatalf("%s %s: %v", strat, q, err)
			}
			exec, err := pq.Exec(pq.Args()...)
			if err != nil {
				t.Fatalf("%s %s: Exec: %v", strat, q, err)
			}
			ans, err := e.Answer(q)
			if err != nil {
				t.Fatalf("%s %s: Answer: %v", strat, q, err)
			}
			if !storage.TuplesEqual(exec, ans) {
				t.Fatalf("%s %s: Exec %v != Answer %v", strat, q, exec, ans)
			}
			// The views cover every predicate identically, so all
			// strategies are exact here: compare against base truth.
			want := datalog.EvalQuery(base, q)
			if !storage.TuplesEqual(exec, want) {
				t.Fatalf("%s %s: Exec %v, base truth %v", strat, q, exec, want)
			}
		}
	}
}

// TestAutoAccounting checks the Auto strategy records the chosen algorithm
// and estimate per plan and attributes cache hits to it.
func TestAutoAccounting(t *testing.T) {
	base, views := pointBase(t, 60)
	e, err := NewFromBase(base, views, Options{Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent rewriting exists: Auto must choose the equivalent-first
	// algorithm and stamp the plan with it.
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	p, err := e.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != Auto || p.Chosen != EquivalentFirst || p.Kind != PlanEquivalent {
		t.Fatalf("plan strategy=%s chosen=%s kind=%s", p.Strategy, p.Chosen, p.Kind)
	}
	if p.Estimate.Cost <= 0 {
		t.Fatalf("estimate not recorded: %+v", p.Estimate)
	}
	if _, err := e.Answer(q); err != nil { // hit
		t.Fatal(err)
	}
	st := e.Stats()
	if agg := st.PerStrategy[EquivalentFirst]; agg.Plans != 1 || agg.Hits != 1 {
		t.Fatalf("equivalent-first accounting = %+v, want 1 plan / 1 hit", agg)
	}
	if agg := st.PerStrategy[Auto]; agg.Plans != 0 {
		t.Fatalf("work booked under the 'auto' label: %+v", agg)
	}
}

// TestAutoPicksMiniConOverInverse: no equivalent rewriting exists but the
// MCR is non-empty, so Auto must choose MiniCon — and attribute the plan
// to it.
func TestAutoPicksMiniConOverInverse(t *testing.T) {
	base := storage.NewDatabase()
	for i := 0; i < 30; i++ {
		base.Insert("r", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
		if i%2 == 0 {
			base.Insert("s", storage.Tuple{fmt.Sprint(i + 1)})
		}
	}
	// v is strictly more selective than r: recovering r exactly is
	// impossible, but v still answers part of the query.
	views, err := cq.ParseViews("v(A,B) :- r(A,B), s(B).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Plan(cq.MustParseQuery("q(X) :- r(X,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Chosen != MiniCon || p.Kind != PlanMaxContained || p.Union.Len() == 0 {
		t.Fatalf("chosen=%s kind=%s union=%d, want non-empty minicon", p.Chosen, p.Kind, p.Union.Len())
	}
	if st := e.Stats(); st.PerStrategy[MiniCon].Plans != 1 {
		t.Fatalf("per-strategy = %+v, want the plan booked under minicon", st.PerStrategy)
	}
}

// TestAutoTakesEmptyMCR: when no equivalent rewriting exists and the MCR
// is empty, Auto plans MiniCon's empty union — the certain answers are
// empty too — and runs no fixpoint.
func TestAutoTakesEmptyMCR(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "b"})
	views, err := cq.ParseViews("vr(A,B) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	// s is covered by no view: the MCR is empty.
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	p, err := e.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	assertEmptyMiniConPlan(t, e, p)
	if got := mustAnswer(t, e, q); len(got) != 0 {
		t.Fatalf("answered %v, want no certain answers", got)
	}
}

// assertEmptyMiniConPlan checks that p is MiniCon's empty union, booked
// under minicon, and that e built no inverse-rules plan and ran no
// fixpoint.
func assertEmptyMiniConPlan(t *testing.T, e *Engine, p *Plan) {
	t.Helper()
	if p.Chosen != MiniCon || p.Kind != PlanMaxContained || p.Union.Len() != 0 {
		t.Fatalf("chosen=%s kind=%s union=%d, want minicon's empty union", p.Chosen, p.Kind, p.Union.Len())
	}
	st := e.Stats()
	if st.PerStrategy[MiniCon].Plans != 1 {
		t.Fatalf("per-strategy = %+v, want the plan booked under minicon", st.PerStrategy)
	}
	if _, ok := st.PerStrategy[InverseRules]; ok {
		t.Fatalf("per-strategy = %+v, want no inverse-rules entry", st.PerStrategy)
	}
	if st.FixpointRuns != 0 {
		t.Fatalf("fixpoint runs = %d, want 0", st.FixpointRuns)
	}
}

// TestEquivalentFirstFallbackAttribution: the MiniCon fallback of the
// default strategy books its work under minicon, not equivalent-first.
func TestEquivalentFirstFallbackAttribution(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	views, err := cq.ParseViews("vr(A,B) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	p, err := e.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Chosen != MiniCon {
		t.Fatalf("chosen = %s, want minicon fallback", p.Chosen)
	}
	if _, err := e.Answer(q); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if agg := st.PerStrategy[MiniCon]; agg.Plans != 1 || agg.Hits != 1 {
		t.Fatalf("minicon accounting = %+v, want 1 plan / 1 hit", agg)
	}
}

// skewedBase is pointBase's views over data that misleads an enumeration
// order: every r tuple joins the one Z value that fans out to 100 Y values,
// while the other 100 Z values fan out to one. The covering view v, which
// the rewriter enumerates first, holds 100 rows per key; the route through
// vr and vs is estimated at about 3 (one vr row per key, two vs rows per
// Z on average), so the cost model ranks the first rewriting last.
func skewedBase(t *testing.T) (*storage.Database, []*cq.Query) {
	t.Helper()
	base := storage.NewDatabase()
	for i := 0; i < 200; i++ {
		base.Insert("r", storage.Tuple{fmt.Sprintf("k%d", i), "z0"})
	}
	for j := 0; j < 100; j++ {
		base.Insert("s", storage.Tuple{"z0", fmt.Sprintf("y%d", j)})
		base.Insert("s", storage.Tuple{fmt.Sprintf("z%d", j+1), fmt.Sprintf("y%d", j)})
	}
	_, views := pointBase(t, 0)
	return base, views
}

// TestAutoKeepsCheapest: under Auto the engine enumerates up to
// autoMaxResults equivalent rewritings and keeps the one the cost model
// ranks cheapest — its recorded estimate must match an independent
// datalog.Choose over the same candidate set. On skewedBase the cheapest
// is not the first enumerated, so an engine that kept the first rewriting
// fails here.
func TestAutoKeepsCheapest(t *testing.T) {
	base, views := skewedBase(t)
	e, err := NewFromBase(base, views, Options{Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(Y) :- r(k3,Z), s(Z,Y)")
	p, err := e.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanEquivalent {
		t.Fatalf("kind = %s", p.Kind)
	}
	// Re-enumerate the same candidates independently and cost them with
	// the parameters bound, exactly like the engine.
	tmpl := cq.CanonicalizeTemplate(q)
	r := core.NewRewriter(e.Views())
	r.Opt.MaxResults = autoMaxResults
	results, _ := r.Rewrite(tmpl.PlanQuery())
	if len(results) < 2 {
		t.Fatalf("want multiple equivalent rewritings, got %d", len(results))
	}
	candidates := make([]*cq.Query, len(results))
	for i, rw := range results {
		candidates[i] = rw.Query
	}
	best, ests := datalog.Choose(candidates, tmpl.Params, cost.NewCatalog(e.Database()))
	if best == 0 {
		t.Fatalf("the first enumerated rewriting %v is the cheapest: the data no longer tells cheapest from first", candidates[0])
	}
	if p.Estimate.Cost != ests[best].Cost || p.Rewriting.Query.String() != candidates[best].String() {
		t.Fatalf("plan %v (estimate %v), independent cheapest %v (estimate %v)",
			p.Rewriting.Query, p.Estimate.Cost, candidates[best], ests[best].Cost)
	}
	for _, est := range ests {
		if est.Cost < p.Estimate.Cost {
			t.Fatalf("engine kept cost %v, cheaper candidate %v exists", p.Estimate.Cost, est.Cost)
		}
	}
	got, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := datalog.EvalQuery(base, q); !storage.TuplesEqual(got, want) || len(got) != 100 {
		t.Fatalf("answers = %d rows, want the %d the base gives", len(got), len(want))
	}
}

// TestConstantViewsDisableAbstraction: with a constant in a view
// definition, per-text plans are kept (a generic plan could miss
// rewritings that hinge on the constant), and answers stay exact.
func TestConstantViewsDisableAbstraction(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "tag"})
	base.Insert("r", storage.Tuple{"b", "tag"})
	base.Insert("r", storage.Tuple{"c", "other"})
	views, err := cq.ParseViews("v(A) :- r(A,tag).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	qTag := cq.MustParseQuery("q(X) :- r(X,tag)")
	got, err := e.Answer(qTag)
	if err != nil {
		t.Fatal(err)
	}
	// The constant-specific rewriting via v must be found.
	if !storage.TuplesEqual(got, []storage.Tuple{{"a"}, {"b"}}) {
		t.Fatalf("answers = %v, want a and b", got)
	}
	p, err := e.Plan(qTag)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Params) != 0 {
		t.Fatalf("abstraction active despite constant views: params=%v", p.Params)
	}
	// A different constant is a different plan (old per-text behaviour).
	if _, err := e.Plan(cq.MustParseQuery("q(X) :- r(X,other)")); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 per-text plans", st.Misses)
	}
}

// TestGroundComparisonSurvivesTemplating: abstracting a body constant must
// not rewrite its comparison occurrences — `5 > 3` stays ground-true in
// the template, so the equivalent rewriting is still found (regression:
// abstraction once turned it into the undecidable `V0 > 3` and the answer
// was silently lost).
func TestGroundComparisonSurvivesTemplating(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"5", "y"})
	views, err := cq.ParseViews("v(A,B) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Answer(cq.MustParseQuery("q(Y) :- r(5,Y), 5 > 3"))
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got, []storage.Tuple{{"y"}}) {
		t.Fatalf("ground-true comparison lost the answer: %v", got)
	}
	got, err = e.Answer(cq.MustParseQuery("q(Y) :- r(5,Y), 5 > 9"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("ground-false comparison answered: %v", got)
	}
	// The two templates differ only in the concrete threshold: both are
	// parameterized on the atom constant, neither shares the other's plan.
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (thresholds are template identity)", st.Misses)
	}
}

// TestInverseRulesKeepsConstantsInProgram: the fixed InverseRules strategy
// compiles query constants into the program (no abstraction) — the query
// rule's join stays restricted — so distinct constants are distinct plans.
func TestInverseRulesKeepsConstantsInProgram(t *testing.T) {
	base, views := pointBase(t, 20)
	e, err := NewFromBase(base, views, Options{Strategy: InverseRules})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Plan(cq.MustParseQuery("q(Y) :- r(k1,Z), s(Z,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Params) != 0 {
		t.Fatalf("inverse plan abstracted constants: params=%v", p.Params)
	}
	if _, err := e.Plan(cq.MustParseQuery("q(Y) :- r(k2,Z), s(Z,Y)")); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 per-text inverse plans", st.Misses)
	}
}

// TestAutoParameterizedEmptyMCR: a parameterized template whose MCR is
// empty plans MiniCon's empty union with the placeholders, and every
// binding answers nothing without error.
func TestAutoParameterizedEmptyMCR(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	views, err := cq.ParseViews("vr(A,B) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{Strategy: Auto})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Prepare(cq.MustParseQuery("q(Y) :- r(a,Z), s(Z,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	p := pq.Plan()
	if len(p.Params) != 1 {
		t.Fatalf("params=%v, want one placeholder", p.Params)
	}
	// s is underivable from the views: certain answers are empty for any
	// binding.
	for _, arg := range []string{"a", "zz"} {
		got, err := pq.Exec(arg)
		if err != nil {
			t.Fatalf("Exec(%s): %v", arg, err)
		}
		if len(got) != 0 {
			t.Fatalf("Exec(%s) = %v, want no certain answers", arg, got)
		}
	}
	assertEmptyMiniConPlan(t, e, p)
}

// TestPreparedLiveUpdates: a prepared handle keeps answering correctly as
// live batches maintain the extents.
func TestPreparedLiveUpdates(t *testing.T) {
	base, views := pointBase(t, 30)
	e, err := NewFromBase(base, views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Prepare(cq.MustParseQuery("q(Y) :- r(k1,Z), s(Z,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	before, err := pq.Exec("k999")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 0 {
		t.Fatalf("unexpected answers before insert: %v", before)
	}
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"k999", "m3"}}}, nil); err != nil {
		t.Fatal(err)
	}
	after, err := pq.Exec("k999")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("answers after insert = %v, want the maintained join", after)
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want the prepared plan to survive the update", st.Misses)
	}
}

// TestPreparedResolvesThroughPlanCache: Prepared finds the handle of a
// cached plan by its fingerprint, with no arguments of its own, without
// allocating and without counting a hit or a miss; once the plan is evicted
// the fingerprint resolves to nothing until a Prepare of the template
// caches it again.
func TestPreparedResolvesThroughPlanCache(t *testing.T) {
	base, views := pointBase(t, 100)
	e, err := NewFromBase(base, views, Options{CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(Y) :- r(k3,Z), s(Z,Y)")
	pq, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	fp := []byte(pq.Plan().Fingerprint)
	h, ok := e.Prepared(fp)
	if !ok || h.Plan() != pq.Plan() || len(h.Args()) != 0 {
		t.Fatalf("Prepared = %v, %v; want the plan of %v with no args", h, ok, pq.Plan())
	}
	got, err := h.Exec("k7")
	if err != nil {
		t.Fatal(err)
	}
	if want := datalog.EvalQuery(base, cq.MustParseQuery("q(Y) :- r(k7,Z), s(Z,Y)")); !storage.TuplesEqual(got, want) {
		t.Fatalf("exec k7 = %v, want %v", got, want)
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { e.Prepared(fp) }); n != 0 {
			t.Fatalf("Prepared allocates %.0f times per call", n)
		}
	}
	if st := e.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("hits %d misses %d after handle lookups, want 0 1", st.Hits, st.Misses)
	}

	if _, err := e.Prepare(cq.MustParseQuery("q(X,Y) :- r(X,Y)")); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Prepared(fp); ok {
		t.Fatal("Prepared found a plan the LRU evicted")
	}
	if _, err := e.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if h2, ok := e.Prepared(fp); !ok || h2.Plan().Fingerprint != string(fp) {
		t.Fatalf("re-prepared template: Prepared = %v, %v", h2, ok)
	}
	if st := e.Stats(); st.Misses != 3 || st.Evictions != 2 {
		t.Fatalf("misses %d evictions %d, want 3 2", st.Misses, st.Evictions)
	}
}
