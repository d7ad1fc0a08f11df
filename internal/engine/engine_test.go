package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// testBase builds a small base database for the standard two-view schema:
//
//	r(a,m). r(b,n). s(m,x). s(n,y). t(m).
func testBase(t testing.TB) (*storage.Database, []*cq.Query) {
	t.Helper()
	base := storage.NewDatabase()
	facts := []struct {
		pred string
		tup  storage.Tuple
	}{
		{"r", storage.Tuple{"a", "m"}},
		{"r", storage.Tuple{"b", "n"}},
		{"s", storage.Tuple{"m", "x"}},
		{"s", storage.Tuple{"n", "y"}},
		{"t", storage.Tuple{"m"}},
	}
	for _, f := range facts {
		if err := base.Insert(f.pred, f.tup); err != nil {
			t.Fatal(err)
		}
	}
	views, err := cq.ParseViews(`
		v(A,B)  :- r(A,C), s(C,B).
		vr(A,B) :- r(A,B).
		vs(A,B) :- s(A,B).
		vt(A)   :- t(A).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return base, views
}

// TestAnswerMatchesDirectEvaluation runs every strategy over each case's
// views and base facts. In an exact case every strategy answers what direct
// evaluation over the base does. In the others no rewriting is equivalent:
// every strategy but InverseRules answers without error and within direct
// evaluation, Auto answers as MiniCon does, and InverseRules refuses the
// query rather than answer beyond it.
func TestAnswerMatchesDirectEvaluation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		src     string // view rules and base facts
		queries []string
		exact   bool
	}{
		// No view enforces the second query's comparison: every strategy
		// must re-assert it on the rewriting rather than lose the query's
		// answers.
		{"two-view schema", `
			v(A,B)  :- r(A,C), s(C,B).
			vr(A,B) :- r(A,B).
			vs(A,B) :- s(A,B).
			vt(A)   :- t(A).
			r(a,m). r(b,n). s(m,x). s(n,y). t(m).`,
			[]string{"q(X,Y) :- r(X,Z), s(Z,Y)", "q(X,Y) :- r(X,Z), s(Z,Y), X < b"}, true},
		// v1 carries a comparison, which inverse rules cannot invert: Auto
		// must not need them, also where MiniCon's union is empty.
		{"view with a comparison", `
			v1(X,Y) :- r(X,Y), X < Y.
			v2(Y,Z) :- s(Y,Z).
			r(1,2). s(2,3).`,
			[]string{"q(X,Z) :- r(X,Y), s(Y,Z)", "q(X) :- t(X,Y)", "q(X) :- t(X,c)"}, false},
		// Only a Skolem value stands for Y, so no certain answer passes
		// Y > 5; comparing the Skolem value's name would answer a.
		{"comparison on a hidden column", `
			v(X) :- r(X,Y).
			r(a,1).`,
			[]string{"q(X) :- r(X,Y), Y > 5"}, false},
	} {
		prog, err := cq.ParseProgram(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		base := storage.NewDatabase()
		if err := base.LoadFacts(prog.Facts); err != nil {
			t.Fatal(err)
		}
		for _, src := range tc.queries {
			where := tc.name + ": " + src
			q := cq.MustParseQuery(src)
			want := datalog.EvalQueryNaive(base, q)
			if tc.exact && len(want) == 0 {
				t.Fatalf("%s has no answers over base data", where)
			}
			got := make(map[Strategy][]storage.Tuple)
			for _, strat := range Strategies() {
				e, err := NewFromBase(base, prog.Queries, Options{Strategy: strat})
				if err != nil {
					t.Fatalf("%s: %s: %v", where, strat, err)
				}
				rows, err := e.Answer(q)
				switch {
				case !tc.exact && strat == InverseRules:
					if err == nil {
						t.Fatalf("%s: inverse-rules answered %v, want the query refused", where, rows)
					}
					continue
				case err != nil:
					t.Fatalf("%s: %s: Answer: %v", where, strat, err)
				case tc.exact && !storage.TuplesEqual(rows, want):
					t.Fatalf("%s: %s: answers %v, want %v", where, strat, rows, want)
				}
				for _, row := range rows {
					if !slices.ContainsFunc(want, func(w storage.Tuple) bool { return slices.Equal(w, row) }) {
						t.Fatalf("%s: %s: answer %v is not among direct evaluation's %v", where, strat, row, want)
					}
				}
				got[strat] = rows
			}
			if !storage.TuplesEqual(got[Auto], got[MiniCon]) {
				t.Fatalf("%s: auto answers %v, minicon %v", where, got[Auto], got[MiniCon])
			}
		}
	}
}

func TestPlanCacheSharedAcrossAlphaVariants(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q1 := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	q2 := cq.MustParseQuery("q(A,B) :- s(C,B), r(A,C)") // α-variant, reordered
	a1, err := e.Answer(q1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Answer(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(a1, a2) {
		t.Fatalf("answers differ across α-variants: %v vs %v", a1, a2)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = hits %d / misses %d, want 1/1 (α-variant must hit)", st.Hits, st.Misses)
	}
	if st.CacheLen != 1 {
		t.Fatalf("cache holds %d plans, want 1", st.CacheLen)
	}
	agg, ok := st.PerStrategy[EquivalentFirst]
	if !ok || agg.Plans != 1 {
		t.Fatalf("per-strategy stats = %+v, want one equivalent-first plan", st.PerStrategy)
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := e.Answer(q); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	st := e.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (single-flight)", st.Misses)
	}
	if st.Hits+st.Coalesced != goroutines-1 {
		t.Fatalf("hits %d + coalesced %d != %d", st.Hits, st.Coalesced, goroutines-1)
	}
}

// TestConcurrentMixedQueries hammers one engine from many goroutines with a
// mix of identical and distinct queries; run with -race this checks the
// engine's locking, the shared containment memo, and the frozen database
// indexes.
func TestConcurrentMixedQueries(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []*cq.Query{
		cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"),
		cq.MustParseQuery("q(A,B) :- s(C,B), r(A,C)"), // α-variant of the above
		cq.MustParseQuery("q2(X) :- r(X,Z), t(Z)"),
		cq.MustParseQuery("q3(X,Y) :- r(X,Y)"),
		cq.MustParseQuery("q4(X) :- s(X,Y)"),
	}
	want := make([][]storage.Tuple, len(queries))
	for i, q := range queries {
		w, err := e.Answer(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := (g + i) % len(queries)
				got, err := e.Answer(queries[k])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !storage.TuplesEqual(got, want[k]) {
					t.Errorf("goroutine %d query %d: answers changed", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.Stats(); st.Misses != uint64(len(queries)-1) {
		// q[0] and q[1] share a fingerprint: 4 distinct plans.
		t.Fatalf("misses = %d, want %d", st.Misses, len(queries)-1)
	}
}

func TestCacheEviction(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs := []*cq.Query{
		cq.MustParseQuery("q1(X,Y) :- r(X,Y)"),
		cq.MustParseQuery("q2(X,Y) :- s(X,Y)"),
		cq.MustParseQuery("q3(X) :- t(X)"),
	}
	for _, q := range qs {
		if _, err := e.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Evictions != 1 || st.CacheLen != 2 {
		t.Fatalf("evictions=%d cacheLen=%d, want 1 and 2", st.Evictions, st.CacheLen)
	}
	// q1 was the least recently used: answering it again must re-plan.
	if _, err := e.Answer(qs[0]); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (q1 evicted and re-planned)", st.Misses)
	}
	// q3 is still cached.
	if _, err := e.Answer(qs[2]); err != nil {
		t.Fatal(err)
	}
	if st = e.Stats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (q3 still cached)", st.Hits)
	}
}

func TestEquivalentFirstFallsBackToMiniCon(t *testing.T) {
	// Only r is covered by a view, so no equivalent rewriting of the
	// r-s join exists; the engine must fall back to the MCR (empty here,
	// since s is not covered at all).
	base := storage.NewDatabase()
	if err := base.Insert("r", storage.Tuple{"a", "m"}); err != nil {
		t.Fatal(err)
	}
	views, err := cq.ParseViews("vr(A,B) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Prepare(cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if p := pq.Plan(); p.Kind != PlanMaxContained {
		t.Fatalf("plan kind = %v, want max-contained fallback", p.Kind)
	}
	ans, err := pq.Exec(pq.Args()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 0 {
		t.Fatalf("answers = %v, want none", ans)
	}
	// The (empty) plan is cached: asking again is a hit, not a re-search.
	if _, err := e.Answer(cq.MustParseQuery("q(U,V) :- r(U,W), s(W,V)")); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (negative plan cached)", st.Hits)
	}
}

// TestServesExtentsOnly: a rewriting is a query over the views, so without
// Options.AllowPartial no engine serves a base relation — whatever the
// strategy, and whether it is static, live, durable or recovered from a
// durable snapshot — and inverse rules answer the certain answers from the
// extents alone. Under AllowPartial the strategies that plan partial
// rewritings (EquivalentFirst, Auto) serve the base relations too, and a
// partial rewriting reads them before and after a batch; the others still
// serve the extents alone.
func TestServesExtentsOnly(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{Strategy: InverseRules})
	if err != nil {
		t.Fatal(err)
	}
	if rel := e.Database().Relation("r"); rel != nil {
		t.Fatal("inverse-rules engine must not hold base relations")
	}
	got, err := e.Answer(cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	want := datalog.EvalQuery(base, cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"))
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("certain answers %v, want %v", got, want)
	}

	// One construction, one served state: for every strategy the static,
	// live, durable (first boot) and durable (recovered from that boot's
	// snapshot) engines serve the same database and the same answers. The
	// rows add a view-named base fact, which the maintainer keeps as a
	// fact given for the view's extent, a view whose extent is empty, and
	// AllowPartial with a base relation u no view covers — held from the
	// start, or first created by the batch, which must then land on both
	// serving sides of the engines that serve the base.
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	qp := cq.MustParseQuery("qp(X,Y) :- r(X,Z), s(Z,Y), u(Y)")
	for _, row := range []struct {
		name    string
		vFact   storage.Tuple // base fact of the view predicate v added to testBase
		views   string        // views added to testBase's
		partial bool          // Options.AllowPartial, with base fact u(x) added
		newPred bool          // under partial: u(x) is left out, so the batch creates u
	}{
		{name: "testBase"},
		{name: "view-named base fact", vFact: storage.Tuple{"c", "z"}},
		{name: "empty extent", views: "ve(A) :- r(A,A)."},
		{name: "AllowPartial", partial: true},
		{name: "AllowPartial, new base predicate", partial: true, newPred: true},
	} {
		for _, strat := range Strategies() {
			base, views := testBase(t)
			if row.vFact != nil {
				if err := base.Insert("v", row.vFact); err != nil {
					t.Fatal(err)
				}
			}
			// The batch the live modes apply: r(a,m) out, r(c,m) in, and
			// u(y) in where u exists.
			ins := map[string][]storage.Tuple{"r": {{"c", "m"}}}
			del := map[string][]storage.Tuple{"r": {{"a", "m"}}}
			if row.partial {
				if !row.newPred {
					if err := base.Insert("u", storage.Tuple{"x"}); err != nil {
						t.Fatal(err)
					}
				}
				ins["u"] = []storage.Tuple{{"y"}}
			}
			extra, err := cq.ParseViews(row.views)
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, extra...)
			isView := make(map[string]bool)
			for _, v := range views {
				isView[v.Name()] = true
			}
			// Only the strategies that plan partial rewritings serve the
			// base under AllowPartial.
			withBase := row.partial && (strat == EquivalentFirst || strat == Auto)
			dir := t.TempDir()
			var served *storage.Database
			var answers []storage.Tuple
			for _, mode := range []struct {
				name string
				base *storage.Database
				opt  Options
			}{
				{"static", base, Options{}},
				{"live", base, Options{LiveUpdates: true}},
				{"durable", base, Options{DataDir: dir, WALNoSync: true}},
				{"durable recovered", nil, Options{LiveUpdates: true, DataDir: dir, WALNoSync: true}},
			} {
				where := row.name + "/" + string(strat) + "/" + mode.name
				mode.opt.Strategy, mode.opt.AllowPartial = strat, row.partial
				e, err := NewFromBase(mode.base, views, mode.opt)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				db := e.Database()
				checkLayout := func(when string) {
					t.Helper()
					for _, pred := range base.Predicates() {
						if isView[pred] {
							continue
						}
						if rel := e.Database().Relation(pred); (rel != nil) != withBase {
							t.Fatalf("%s%s: base relation %s served = %v, want %v", where, when, pred, rel != nil, withBase)
						}
					}
				}
				checkLayout("")
				got := mustAnswer(t, e, q)
				if served == nil {
					served, answers = db, got
					if row.vFact != nil && !db.Relation("v").Contains(row.vFact) {
						t.Fatalf("%s: view-named base fact v%v not served in v's extent", where, row.vFact)
					}
					for _, v := range extra {
						if rel := db.Relation(v.Name()); rel == nil || rel.Len() != 0 {
							t.Fatalf("%s: extent of %s should be served, empty", where, v.Name())
						}
					}
				} else if !db.Equal(served) {
					t.Fatalf("%s: served database differs from the static engine's:\n%s\nvs\n%s", where, db.Summary(), served.Summary())
				} else if !storage.TuplesEqual(got, answers) {
					t.Fatalf("%s: answers %v, static engine %v", where, got, answers)
				}
				shadow := base
				checkPartial := func(when string) {
					t.Helper()
					if !withBase {
						return
					}
					p, err := e.Plan(qp)
					if err != nil {
						t.Fatalf("%s%s: %v", where, when, err)
					}
					if p.Kind != PlanEquivalent || p.Rewriting.Complete {
						t.Fatalf("%s%s: plan %v (complete=%v), want a partial rewriting", where, when, p.Kind, p.Rewriting != nil && p.Rewriting.Complete)
					}
					if got, want := mustAnswer(t, e, qp), datalog.EvalQuery(shadow, qp); !storage.TuplesEqual(got, want) {
						t.Fatalf("%s%s: partial rewriting answers %v, want %v", where, when, got, want)
					}
				}
				checkPartial("")
				if mode.opt.LiveUpdates {
					if err := e.ApplyUpdate(ins, del); err != nil {
						t.Fatalf("%s: batch: %v", where, err)
					}
					shadow = base.Clone()
					for pred, tuples := range del {
						for _, tup := range tuples {
							shadow.Remove(pred, tup)
						}
					}
					for pred, tuples := range ins {
						for _, tup := range tuples {
							if err := shadow.Insert(pred, tup); err != nil {
								t.Fatal(err)
							}
						}
					}
					checkLayout(" after a batch")
					checkSides(t, e)
					for i, side := range e.live.sides {
						if rel := side.Relation("u"); (rel != nil) != withBase {
							t.Fatalf("%s: after a batch, side %d serves u = %v, want %v", where, i, rel != nil, withBase)
						}
					}
					checkPartial(" after a batch")
				}
				if err := e.Close(); err != nil {
					t.Fatalf("%s: close: %v", where, err)
				}
			}
		}
	}
}

// TestAutoInverseReadsOnlyExtents: an inverse-rules program reconstructs
// the base from the extents and must not also read the base facts the
// views hide. The view hides r's second column, so q(X,Z) :- r(X,Z) has no
// certain answer (MiniCon's union is empty and the reconstructed
// r(a, f(a,x)) carries a Skolem term), on every construction path.
// InverseRules under AllowPartial, which it ignores, answers the same, and
// so does Auto, which plans with MiniCon with or without AllowPartial.
func TestAutoInverseReadsOnlyExtents(t *testing.T) {
	base := storage.NewDatabase()
	for _, f := range []struct {
		pred string
		tup  storage.Tuple
	}{{"r", storage.Tuple{"a", "m"}}, {"s", storage.Tuple{"m", "x"}}} {
		if err := base.Insert(f.pred, f.tup); err != nil {
			t.Fatal(err)
		}
	}
	views, err := cq.ParseViews("v1(X,Y) :- r(X,Z), s(Z,Y).")
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Z) :- r(X,Z)")
	for _, cfg := range []struct {
		Options
		chosen Strategy
	}{
		{Options{Strategy: InverseRules}, InverseRules},
		{Options{Strategy: InverseRules, AllowPartial: true}, InverseRules},
		{Options{Strategy: Auto}, MiniCon},
		// Auto serves the base under AllowPartial, which MiniCon's union
		// does not read.
		{Options{Strategy: Auto, AllowPartial: true}, MiniCon},
	} {
		dir := t.TempDir()
		for _, mode := range []struct {
			name string
			base *storage.Database
			opt  Options
		}{
			{"static", base, Options{}},
			{"live", base, Options{LiveUpdates: true}},
			{"durable", base, Options{DataDir: dir, WALNoSync: true}},
			{"durable recovered", nil, Options{LiveUpdates: true, DataDir: dir, WALNoSync: true}},
		} {
			where := fmt.Sprintf("%s partial=%v/%s", cfg.Strategy, cfg.AllowPartial, mode.name)
			mode.opt.Strategy, mode.opt.AllowPartial = cfg.Strategy, cfg.AllowPartial
			e, err := NewFromBase(mode.base, views, mode.opt)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			p, err := e.Plan(q)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if p.Chosen != cfg.chosen {
				t.Fatalf("%s: planned with %s, want %s", where, p.Chosen, cfg.chosen)
			}
			if got := mustAnswer(t, e, q); len(got) != 0 {
				t.Fatalf("%s: answered %v from base facts the views hide, want none", where, got)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("%s: close: %v", where, err)
			}
		}
	}
}

// TestNewFromBaseLeavesBaseUnindexed: construction only reads the caller's
// base, so engines built concurrently from one base never write the same
// index maps. An unindexed base stays unindexed whatever the mode and the
// serving layout.
func TestNewFromBaseLeavesBaseUnindexed(t *testing.T) {
	for _, mode := range []string{"static", "live", "durable"} {
		for _, strat := range []Strategy{EquivalentFirst, InverseRules} {
			base, views := testBase(t)
			opt := Options{Strategy: strat, LiveUpdates: mode != "static"}
			if mode == "durable" {
				opt.DataDir, opt.WALNoSync = t.TempDir(), true
			}
			e, err := NewFromBase(base, views, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, strat, err)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("%s/%s: close: %v", mode, strat, err)
			}
			for _, pred := range base.Predicates() {
				rel := base.Relation(pred)
				for c := 0; c < rel.Arity(); c++ {
					if _, ok := rel.ColumnIndex(c); ok {
						t.Errorf("%s/%s: construction indexed column %d of the caller's %s", mode, strat, c, pred)
					}
				}
			}
		}
	}
}

func TestEngineErrors(t *testing.T) {
	base, views := testBase(t)
	if _, err := NewFromBase(base, nil, Options{}); err == nil {
		t.Fatal("empty view set accepted")
	}
	if _, err := NewFromBase(base, views, Options{Strategy: "nope"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &cq.Query{Head: cq.NewAtom("q", cq.Var("X"))}
	if _, err := e.Answer(bad); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := ParseStrategy("equivalent"); err != nil {
		t.Fatal("CLI alias 'equivalent' rejected")
	}
	if _, err := ParseStrategy("inverse"); err != nil {
		t.Fatal("CLI alias 'inverse' rejected")
	}
}

// TestStrategyAliasesResolve: an engine built under any ParseStrategy
// spelling — the CLI aliases included — plans under the canonical strategy
// and answers exactly as an engine built under the canonical name.
func TestStrategyAliasesResolve(t *testing.T) {
	base, views := testBase(t)
	names := []string{"equivalent", "inverse"}
	for _, s := range Strategies() {
		names = append(names, string(s))
	}
	queries := []*cq.Query{
		cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"),
		cq.MustParseQuery("q(Y) :- r(a,Z), s(Z,Y)"),
		cq.MustParseQuery("q(X) :- r(X,Z), t(Z)"),
	}
	for _, name := range names {
		want, err := ParseStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		alias, err := NewFromBase(base, views, Options{Strategy: Strategy(name)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon, err := NewFromBase(base, views, Options{Strategy: want})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			got, err := alias.Answer(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			ref, err := canon.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if !storage.TuplesEqual(got, ref) {
				t.Fatalf("%s: %s answers %v, %s answers %v", name, q, got, want, ref)
			}
			p, err := alias.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if p.Strategy != want {
				t.Fatalf("%s: plan strategy %q, want %q", name, p.Strategy, want)
			}
		}
	}
}

// TestEvalHandBuiltPlan: a plan reaches evaluation only through Prepare,
// so no hand-built plan can be evaluated, and every plan Prepare hands out
// — of each kind, under each strategy — carries the compiled form its
// kind is evaluated through, and executes.
func TestEvalHandBuiltPlan(t *testing.T) {
	base, views := testBase(t)
	kinds := make(map[PlanKind]bool)
	for _, strat := range Strategies() {
		e, err := NewFromBase(base, views, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range []string{"q(X,Y) :- r(X,Z), s(Z,Y)", "q(X) :- r(X,Z), s(Z,x), t(Z)", "q(X) :- s(X,Y), u(Y)"} {
			pq, err := e.Prepare(cq.MustParseQuery(text))
			if err != nil {
				t.Fatal(err)
			}
			p := pq.Plan()
			kinds[p.Kind] = true
			compiled := map[PlanKind]bool{
				PlanEquivalent:     p.Compiled != nil,
				PlanMaxContained:   p.CompiledUnion != nil,
				PlanInverseProgram: p.CompiledProgram != nil,
			}[p.Kind]
			if !compiled {
				t.Fatalf("%s, %s: %s plan without its compiled form", strat, text, p.Kind)
			}
			if _, err := pq.Exec(pq.Args()...); err != nil {
				t.Fatalf("%s, %s: %v", strat, text, err)
			}
		}
	}
	if len(kinds) != 3 {
		t.Fatalf("plan kinds covered: %v, want all three", kinds)
	}
}

// TestCompiledPlansInCache asserts the LRU holds physical plans alongside
// the rewriting, that the answers agree with direct evaluation across
// strategies, and that compile/exec timings surface in Stats.
func TestCompiledPlansInCache(t *testing.T) {
	base, views := testBase(t)
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	want := datalog.EvalQuery(base, q)
	for _, strat := range []Strategy{EquivalentFirst, Bucket, MiniCon} {
		e, err := NewFromBase(base, views, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		p, err := e.Plan(q)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		switch p.Kind {
		case PlanEquivalent:
			if p.Compiled == nil {
				t.Fatalf("%s: cached plan has no compiled form", strat)
			}
		case PlanMaxContained:
			if len(p.CompiledUnion) != p.Union.Len() {
				t.Fatalf("%s: %d compiled members for %d-member union", strat, len(p.CompiledUnion), p.Union.Len())
			}
		}
		got, err := e.Answer(q)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !storage.TuplesEqual(got, want) {
			t.Fatalf("%s: got %v want %v", strat, got, want)
		}
		st := e.Stats()
		if st.ExecCount == 0 {
			t.Fatalf("%s: ExecCount not recorded", strat)
		}
	}
}

// TestCompiledProgramInCache asserts the inverse-rules strategy caches the
// compiled semi-naive program beside the rule set, answers identically to
// the interpretive baseline, and surfaces fixpoint counters in Stats.
func TestCompiledProgramInCache(t *testing.T) {
	base, views := testBase(t)
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	e, err := NewFromBase(base, views, Options{Strategy: InverseRules})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanInverseProgram || p.CompiledProgram == nil {
		t.Fatalf("plan kind=%v compiled program=%v", p.Kind, p.CompiledProgram)
	}
	got, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: interpretive fixpoint over the same view extents.
	viewDB, err := datalog.MaterializeViews(base, views)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Program.EvalInterp(viewDB)
	if err != nil {
		t.Fatal(err)
	}
	var want []storage.Tuple
	for _, tup := range out.Relation(q.Name()).Tuples() {
		if !datalog.HasSkolem(tup) {
			want = append(want, tup)
		}
	}
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("compiled fixpoint answers %v, interp %v", got, want)
	}
	st := e.Stats()
	if st.FixpointRuns == 0 || st.FixpointIterations == 0 || st.FixpointDerived == 0 {
		t.Fatalf("fixpoint counters not recorded: %+v", st)
	}
}

// TestConcurrentInverseRulesRace hammers one inverse-rules engine from many
// goroutines: the compiled fixpoint executor must never mutate the shared
// frozen database (run under -race in CI).
func TestConcurrentInverseRulesRace(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{Strategy: InverseRules})
	if err != nil {
		t.Fatal(err)
	}
	queries := []*cq.Query{
		cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"),
		cq.MustParseQuery("q2(X) :- r(X,Z), t(Z)"),
		cq.MustParseQuery("q3(A,B) :- r(A,B)"),
		cq.MustParseQuery("q(U,V) :- r(U,W), s(W,V)"), // α-variant of the first
	}
	wants := make([][]storage.Tuple, len(queries))
	for i, q := range queries {
		if wants[i], err = e.Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(queries)
				got, err := e.Answer(queries[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !storage.TuplesEqual(got, wants[k]) {
					t.Errorf("query %d: got %v want %v", k, got, wants[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
