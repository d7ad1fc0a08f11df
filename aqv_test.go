package aqv

import (
	"testing"

	"repro/internal/datalog"
)

// TestFacadeEndToEnd exercises the public API exactly as README documents
// it: parse, rewrite, materialise, evaluate, compare.
func TestFacadeEndToEnd(t *testing.T) {
	q := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	view := MustParseQuery("v(A,B) :- r(A,C), s(C,B)")
	vs := MustNewViewSet(view)

	rw := NewRewriter(vs).RewriteOne(q)
	if rw == nil {
		t.Fatal("no rewriting")
	}
	if rw.Query.String() != "q(X,Y) :- v(X,Y)." {
		t.Fatalf("rewriting = %v", rw.Query)
	}
	if !Equivalent(rw.Expansion, q) {
		t.Fatal("expansion not equivalent")
	}
	ok, err := VerifyRewriting(q, rw.Query, vs)
	if err != nil || !ok {
		t.Fatalf("VerifyRewriting = %v, %v", ok, err)
	}

	base := NewDatabase()
	prog, err := ParseProgram("r(a,m). s(m,x).")
	if err != nil {
		t.Fatal(err)
	}
	if err := base.LoadFacts(prog.Facts); err != nil {
		t.Fatal(err)
	}
	viewDB, err := MaterializeViews(base, []*Query{view})
	if err != nil {
		t.Fatal(err)
	}
	direct := EvalQuery(base, q)
	viaView := EvalQuery(viewDB, rw.Query)
	if !TuplesEqual(direct, viaView) {
		t.Fatalf("direct %v != viaView %v", direct, viaView)
	}
}

func TestFacadeMaximallyContained(t *testing.T) {
	q := MustParseQuery("q(X) :- r(X,Z), s(Z)")
	views := []*Query{
		MustParseQuery("v1(A,B) :- r(A,B)"),
		MustParseQuery("v2(A) :- s(A)"),
	}
	vs := MustNewViewSet(views...)

	bu, _, err := BucketRewrite(q, vs, BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mu, _, err := MiniConRewrite(q, vs, MiniConOptions{VerifyCandidates: true})
	if err != nil {
		t.Fatal(err)
	}
	if bu.Len() == 0 || mu.Len() == 0 {
		t.Fatalf("empty rewritings: bucket=%v minicon=%v", bu, mu)
	}
	be, _ := Expand(bu.Queries[0], vs)
	if !Contained(be, q) {
		t.Fatal("bucket member unsound")
	}
	if !ContainedInUnion(q, mustExpandUnion(t, mu, vs)) {
		t.Fatal("minicon union not equivalent on covering views")
	}
}

func mustExpandUnion(t *testing.T, u *Union, vs *ViewSet) *Union {
	t.Helper()
	out := &Union{}
	for _, m := range u.Queries {
		e, err := Expand(m, vs)
		if err != nil {
			t.Fatal(err)
		}
		out.Add(e)
	}
	return out
}

func TestFacadeCertain(t *testing.T) {
	base := NewDatabase()
	prog, _ := ParseProgram("r(a,m). s(m,x).")
	if err := base.LoadFacts(prog.Facts); err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	views := []*Query{MustParseQuery("v(A,B) :- r(A,C), s(C,B)")}
	rep, err := CertainCompare(q, views, base)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MethodsAgree || !rep.SoundMC || !rep.ExactRecovery {
		t.Fatalf("report = %+v", rep)
	}
}

func TestFacadeContainmentHelpers(t *testing.T) {
	a := MustParseQuery("q(X) :- r(X,Y), r(X,Z)")
	b := MustParseQuery("q(X) :- r(X,Y)")
	if !Equivalent(a, b) || !Contained(a, b) || !Contained(b, a) {
		t.Fatal("containment helpers broken")
	}
	if m := Minimize(a); len(m.Body) != 1 {
		t.Fatalf("Minimize = %v", m)
	}
	if !ContainedSound(MustParseQuery("q(X) :- r(X), X > 5"), MustParseQuery("q(X) :- r(X), X > 3")) {
		t.Fatal("sound comparison containment broken")
	}
	u := NewUnion(b)
	if !UnionContained(u, b) || !ContainedInUnion(b, u) {
		t.Fatal("union helpers broken")
	}
	if MinimizeUnion(NewUnion(a, b)).Len() != 1 {
		t.Fatal("MinimizeUnion broken")
	}
}

func TestFacadeInverseRules(t *testing.T) {
	q := MustParseQuery("q(X) :- r(X,Y)")
	views := []*Query{MustParseQuery("v(A,B) :- r(A,B)")}
	prog, err := InverseRulesProgram(q, views)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("program = %v", prog)
	}
	viewDB := NewDatabase()
	viewDB.Insert("v", Tuple{"a", "b"})
	ans, err := InverseRulesAnswer(q, views, viewDB)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0][0] != "a" {
		t.Fatalf("answers = %v", ans)
	}
}

func TestFacadeUsable(t *testing.T) {
	q := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	if !Usable(MustParseQuery("v(A,C) :- r(A,C)"), q) {
		t.Fatal("usable view rejected")
	}
	if Usable(MustParseQuery("v(A) :- r(A,C)"), q) {
		t.Fatal("unusable view accepted")
	}
}

// TestFacadeEngine exercises the serving layer exactly as README documents
// it: build an engine from base data, answer a query, answer an α-variant
// (cache hit), and read the stats.
func TestFacadeEngine(t *testing.T) {
	base := NewDatabase()
	prog, _ := ParseProgram("r(a,m). s(m,x).")
	if err := base.LoadFacts(prog.Facts); err != nil {
		t.Fatal(err)
	}
	views := []*Query{MustParseQuery("v(A,B) :- r(A,C), s(C,B)")}
	eng, err := NewEngineFromBase(base, views, EngineOptions{Strategy: StrategyEquivalentFirst})
	if err != nil {
		t.Fatal(err)
	}
	q := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	ans, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !TuplesEqual(ans, EvalQuery(base, q)) {
		t.Fatalf("engine answers %v disagree with direct evaluation", ans)
	}
	variant := MustParseQuery("q(A,B) :- s(C,B), r(A,C)")
	if Fingerprint(q) != Fingerprint(variant) {
		t.Fatal("facade Fingerprint not α-invariant")
	}
	if _, err := eng.Answer(variant); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	a, err := eng.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Answer(variant)
	if err != nil {
		t.Fatal(err)
	}
	if !TuplesEqual(a, b) {
		t.Fatal("α-equivalent answers disagree")
	}
}

func TestFacadeTermConstructors(t *testing.T) {
	a := NewAtom("r", Var("X"), Const("c"))
	q := NewQuery(NewAtom("q", Var("X")), a)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.String() != "q(X) :- r(X,c)." {
		t.Fatalf("q = %v", q)
	}
}

// TestNilCatalogMeansNoStatistics: a nil catalog is "no statistics"
// everywhere a catalog is taken, as it is for CompileQueryParams: the
// facade's EstimateQuery and ChoosePlan and the datalog functions they
// are price every relation as unknown, exactly as an empty catalog does,
// instead of dereferencing nil.
func TestNilCatalogMeansNoStatistics(t *testing.T) {
	a := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y), X < Y")
	b := MustParseQuery("q(X,Y) :- t(X,Y)")
	empty := NewCatalog(NewDatabase())
	want := EstimateQuery(a, []string{"X"}, empty)
	for name, est := range map[string]func(*Query, []string, *Catalog) CostEstimate{
		"EstimateQuery": EstimateQuery, "datalog.Estimate": datalog.Estimate,
	} {
		if got := est(a, []string{"X"}, nil); got != want {
			t.Errorf("%s with a nil catalog = %+v, want the empty catalog's %+v", name, got, want)
		}
	}
	wantBest, wantEst := ChoosePlan([]*Query{a, b}, nil, empty)
	for name, choose := range map[string]func([]*Query, []string, *Catalog) (int, []CostEstimate){
		"ChoosePlan": ChoosePlan, "datalog.Choose": datalog.Choose,
	} {
		best, est := choose([]*Query{a, b}, nil, nil)
		if best != wantBest || len(est) != 2 || est[0] != wantEst[0] || est[1] != wantEst[1] {
			t.Errorf("%s with a nil catalog = %d %+v, want the empty catalog's %d %+v", name, best, est, wantBest, wantEst)
		}
	}
	if c := (*Catalog)(nil); c.Rows("r") != 1 || c.Distinct("r", 0) != 1 {
		t.Errorf("a nil catalog reads %v rows and %v distinct values, want 1 and 1", c.Rows("r"), c.Distinct("r", 0))
	}
}
