package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/containment"
	"repro/internal/cq"
)

func mustQ(src string) *cq.Query { return cq.MustParseQuery(src) }

func views(srcs ...string) *ViewSet {
	vs := make([]*cq.Query, len(srcs))
	for i, s := range srcs {
		vs[i] = mustQ(s)
	}
	return MustNewViewSet(vs...)
}

// mustExpand is Expand that panics on error.
func mustExpand(q *cq.Query, vs *ViewSet) *cq.Query {
	out, err := Expand(q, vs)
	if err != nil {
		panic(err)
	}
	return out
}

func TestViewSetValidation(t *testing.T) {
	if _, err := NewViewSet(mustQ("v(X) :- r(X)"), mustQ("v(Y) :- s(Y)")); err == nil {
		t.Fatal("duplicate view name accepted")
	}
	if _, err := NewViewSet(mustQ("v(X) :- r(X)"), mustQ("w(Y) :- v(Y)")); err == nil {
		t.Fatal("view over view accepted")
	}
	if _, err := NewViewSet(mustQ("w(Y) :- v(Y)"), mustQ("v(X) :- r(X)")); err == nil {
		t.Fatal("view name colliding with base predicate accepted")
	}
	if _, err := NewViewSet(&cq.Query{Head: cq.NewAtom("v", cq.Var("X"))}); err == nil {
		t.Fatal("invalid view accepted")
	}
	vs := views("v1(X) :- r(X)", "v2(Y) :- s(Y)")
	if vs.Len() != 2 || vs.view("v1") == nil || vs.view("nope") != nil {
		t.Fatal("lookup/len wrong")
	}
	if v1, v2 := vs.View(0).Query.Name(), vs.View(1).Query.Name(); v1 != "v1" || v2 != "v2" {
		t.Fatalf("views in order %s, %s", v1, v2)
	}
	var nilVS *ViewSet
	if nilVS.view("v1") != nil {
		t.Fatal("nil ViewSet lookup should be nil")
	}
}

func TestExpandBasic(t *testing.T) {
	vs := views("v(A,B) :- r(A,C), s(C,B)")
	q := mustQ("q(X,Y) :- v(X,Y)")
	exp := mustExpand(q, vs)
	if len(exp.Body) != 2 || exp.Body[0].Pred != "r" || exp.Body[1].Pred != "s" {
		t.Fatalf("expansion = %v", exp)
	}
	if !containment.Equivalent(exp, mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")) {
		t.Fatalf("expansion wrong: %v", exp)
	}
}

func TestExpandFreshensExistentials(t *testing.T) {
	vs := views("v(A) :- r(A,C)")
	q := mustQ("q(X,Y) :- v(X), v(Y)")
	exp := mustExpand(q, vs)
	if len(exp.Body) != 2 {
		t.Fatalf("expansion = %v", exp)
	}
	// The two copies of C must be distinct variables.
	if exp.Body[0].Args[1] == exp.Body[1].Args[1] {
		t.Fatalf("existential not freshened: %v", exp)
	}
}

func TestExpandRepeatedHeadVar(t *testing.T) {
	// v(A,A) forces its two arguments equal; expanding v(X,Y) must unify
	// X and Y throughout the query.
	vs := views("v(A,A) :- r(A)")
	q := mustQ("q(X,Y) :- v(X,Y), s(X), t(Y)")
	exp := mustExpand(q, vs)
	if !containment.Equivalent(exp, mustQ("q(X,X) :- r(X), s(X), t(X)")) {
		t.Fatalf("expansion = %v", exp)
	}
}

func TestExpandConstantPropagation(t *testing.T) {
	vs := views("v(A) :- r(A,5)")
	q := mustQ("q(X) :- v(X), s(X)")
	exp := mustExpand(q, vs)
	if !containment.Equivalent(exp, mustQ("q(X) :- r(X,5), s(X)")) {
		t.Fatalf("expansion = %v", exp)
	}
}

func TestExpandConstantConflict(t *testing.T) {
	vs := views("v(3) :- r(3)")
	q := mustQ("q(X) :- v(5), s(X)")
	if _, err := Expand(q, vs); err == nil {
		t.Fatal("conflicting constants accepted")
	}
}

func TestExpandArityMismatch(t *testing.T) {
	vs := views("v(A) :- r(A)")
	if _, err := Expand(mustQ("q(X) :- v(X,X)"), vs); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestExpandComparisonsCarried(t *testing.T) {
	vs := views("v(A) :- r(A,B), B > 3")
	q := mustQ("q(X) :- v(X), X < 7")
	exp := mustExpand(q, vs)
	if len(exp.Comparisons) != 2 {
		t.Fatalf("comparisons = %v", exp.Comparisons)
	}
}

func TestExpandLeavesBaseAtoms(t *testing.T) {
	vs := views("v(A) :- r(A)")
	q := mustQ("q(X) :- v(X), base(X,Y)")
	exp := mustExpand(q, vs)
	found := false
	for _, a := range exp.Body {
		if a.Pred == "base" {
			found = true
		}
	}
	if !found {
		t.Fatalf("base atom dropped: %v", exp)
	}
}

func TestExpandUnion(t *testing.T) {
	vs := views("v(A) :- r(A)")
	u := cq.NewUnion(mustQ("q(X) :- v(X)"), mustQ("q(X) :- s(X)"))
	eu, err := ExpandUnion(u, vs)
	if err != nil || eu.Len() != 2 {
		t.Fatalf("ExpandUnion = %v, %v", eu, err)
	}
	if eu.Queries[0].Body[0].Pred != "r" {
		t.Fatalf("first member not expanded: %v", eu.Queries[0])
	}
}

// Application is one way of using a view in a rewriting of a query, as
// Usable judges it: the rewriting subgoal Atom that a homomorphism of the
// view's body into the query yields, the query atoms Covers it lands on, in
// increasing order, and whether checkApplication finds it Valid (Reason
// says why not).
type Application struct {
	Atom   cq.Atom
	Covers []int
	Valid  bool
	Reason string
}

// applications enumerates the applications of view v to q, one per distinct
// rewriting atom and covered set.
func applications(v, q *cq.Query) []Application {
	var s containment.Search
	iv := newView(v)
	var out []Application
	s.BodyMappings(&iv.Numbered, q, func(at []int32) bool {
		ap := Application{Atom: cq.Atom{Pred: v.Head.Pred}}
		for pos, id := range iv.Head() {
			ap.Atom.Args = append(ap.Atom.Args, image(&s, id, v.Head.Args[pos]))
		}
		for _, j := range at {
			ap.Covers = append(ap.Covers, int(j))
		}
		slices.Sort(ap.Covers)
		ap.Covers = slices.Compact(ap.Covers)
		ap.Valid, ap.Reason = checkApplication(iv, q, &s, at)
		if !slices.ContainsFunc(out, func(o Application) bool {
			return o.Atom.Equal(ap.Atom) && slices.Equal(o.Covers, ap.Covers)
		}) {
			out = append(out, ap)
		}
		return true
	})
	return out
}

func TestApplicationsBasic(t *testing.T) {
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	v := mustQ("v(A,B) :- r(A,C), s(C,B)")
	apps := applications(v, q)
	if len(apps) != 1 {
		t.Fatalf("applications = %v", apps)
	}
	ap := apps[0]
	if !ap.Valid {
		t.Fatalf("application invalid: %s", ap.Reason)
	}
	if ap.Atom.String() != "v(X,Y)" {
		t.Fatalf("atom = %v", ap.Atom)
	}
	if len(ap.Covers) != 2 {
		t.Fatalf("covers = %v", ap.Covers)
	}
}

func TestApplicationsInvalidHiddenJoin(t *testing.T) {
	// C is existential in the view but the query needs Z outside r's atom.
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	v := mustQ("v(A) :- r(A,C)")
	apps := applications(v, q)
	if len(apps) != 1 {
		t.Fatalf("applications = %v", apps)
	}
	if apps[0].Valid {
		t.Fatal("application hiding the join variable reported valid")
	}
	if !strings.Contains(apps[0].Reason, "needed term") {
		t.Fatalf("reason = %q", apps[0].Reason)
	}
}

func TestApplicationsInvalidConstant(t *testing.T) {
	q := mustQ("q(X) :- r(X,5)")
	v := mustQ("v(A) :- r(A,C)")
	apps := applications(v, q)
	if len(apps) != 1 || apps[0].Valid {
		t.Fatalf("existential-on-constant should be invalid: %v", apps)
	}
}

func TestApplicationsCollapseExistentials(t *testing.T) {
	q := mustQ("q(X) :- r(X,Z,Z)")
	v := mustQ("v(A) :- r(A,C,D)")
	apps := applications(v, q)
	if len(apps) != 1 || apps[0].Valid {
		t.Fatalf("collapsed existentials should be invalid: %v", apps)
	}
}

func TestUsable(t *testing.T) {
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	if !Usable(mustQ("v(A,C) :- r(A,C)"), q) {
		t.Fatal("view exposing join var should be usable")
	}
	if Usable(mustQ("v(A) :- r(A,C)"), q) {
		t.Fatal("view hiding join var should not be usable")
	}
	if Usable(mustQ("v(A) :- t(A)"), q) {
		t.Fatal("view over unrelated predicate should not be usable")
	}
}

// TestUsableMissesEquivalentRewriting: usability is not necessary for
// occurring in an equivalent rewriting. v2's only homomorphism into q maps
// its existential Y1 to the head variable X1, so v2 has no valid
// application, yet q :- v0, v2, v3 is equivalent to q, because v0 exposes
// X1.
func TestUsableMissesEquivalentRewriting(t *testing.T) {
	q := mustQ("q(X0,X1,X2,X3) :- p1(X0,X1), p2(X0,X2), p3(X0,X3)")
	vs := views(
		"v0(Y0,Y1) :- p1(Y0,Y1)",
		"v2(Y0,Y2) :- p2(Y0,Y2), p1(Y0,Y1), p3(Y0,Y3)",
		"v3(Y0,Y3) :- p1(Y0,Y1), p3(Y0,Y3), p2(Y0,Y2)",
	)
	ok, err := VerifyRewriting(q, mustQ("q(X0,X1,X2,X3) :- v0(X0,X1), v2(X0,X2), v3(X0,X3)"), vs)
	if err != nil || !ok {
		t.Fatalf("VerifyRewriting = %v, %v; want an equivalent rewriting", ok, err)
	}
	if Usable(vs.view("v2").Query, q) {
		t.Fatal("Usable(v2, q) = true; v2's only application hides the head variable X1")
	}
	rw := NewRewriter(vs).RewriteOne(q)
	if rw == nil {
		t.Fatal("Rewrite found no rewriting; q :- v0, v2, v3 is one")
	}
	if ok, err := VerifyRewriting(q, rw.Query, vs); err != nil || !ok {
		t.Fatalf("Rewrite returned %s, which does not verify: %v, %v", rw.Query, ok, err)
	}
}

func TestRewriteSingleViewExact(t *testing.T) {
	vs := views("v(A,B) :- r(A,C), s(C,B)")
	r := NewRewriter(vs)
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	rw := r.RewriteOne(q)
	if rw == nil {
		t.Fatal("no rewriting found")
	}
	if rw.Query.String() != "q(X,Y) :- v(X,Y)." {
		t.Fatalf("rewriting = %v", rw.Query)
	}
	if !rw.Complete {
		t.Fatal("complete rewriting flagged partial")
	}
	ok, err := VerifyRewriting(q, rw.Query, vs)
	if err != nil || !ok {
		t.Fatalf("VerifyRewriting = %v, %v", ok, err)
	}
}

func TestRewriteTwoViewJoin(t *testing.T) {
	vs := views("v1(A,C) :- r(A,C)", "v2(C,B) :- s(C,B)")
	r := NewRewriter(vs)
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	rw := r.RewriteOne(q)
	if rw == nil {
		t.Fatal("no rewriting found")
	}
	if len(rw.Query.Body) != 2 {
		t.Fatalf("rewriting = %v", rw.Query)
	}
	if !containment.Equivalent(rw.Expansion, q) {
		t.Fatal("expansion not equivalent")
	}
}

func TestRewriteNoneExists(t *testing.T) {
	// The view hides the join variable: no equivalent rewriting.
	vs := views("v(A) :- r(A,C)", "w(B) :- s(C,B)")
	r := NewRewriter(vs)
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	if r.RewriteOne(q) != nil {
		t.Fatal("rewriting found where none exists")
	}
}

func TestRewriteRequiresEquivalenceNotJustContainment(t *testing.T) {
	// View is strictly stronger than the query atom: using it would give a
	// contained but not equivalent rewriting.
	vs := views("v(A) :- r(A,A)")
	r := NewRewriter(vs)
	q := mustQ("q(X) :- r(X,Y)")
	if r.RewriteOne(q) != nil {
		t.Fatal("non-equivalent rewriting accepted")
	}
}

func TestRewriteLengthBound(t *testing.T) {
	// Paper R2: a rewriting, if it exists, needs at most n subgoals.
	vs := views(
		"v1(A,B) :- e(A,B)",
		"v2(A,B,C) :- e(A,B), e(B,C)",
	)
	r := NewRewriter(vs)
	r.Opt.MaxResults = AllRewritings
	q := mustQ("q(X,W) :- e(X,Y), e(Y,Z), e(Z,W)")
	res, _ := r.Rewrite(q)
	if len(res) == 0 {
		t.Fatal("no rewritings found")
	}
	for _, rw := range res {
		if len(rw.Query.Body) > len(q.Body) {
			t.Fatalf("rewriting exceeds paper bound: %v", rw.Query)
		}
		if !containment.Equivalent(rw.Expansion, q) {
			t.Fatalf("unsound rewriting: %v", rw.Query)
		}
	}
}

func TestRewriteMinimizationEnablesRewriting(t *testing.T) {
	// The query has a redundant atom; only after minimisation does the
	// single view cover the whole body.
	vs := views("v(A,B) :- r(A,B)")
	q := mustQ("q(X,Y) :- r(X,Y), r(X,Z)")
	r := NewRewriter(vs)
	rw := r.RewriteOne(q)
	if rw == nil {
		t.Fatal("no rewriting found on redundant query")
	}
	if rw.Query.String() != "q(X,Y) :- v(X,Y)." {
		t.Fatalf("rewriting = %v", rw.Query)
	}
	// With minimisation disabled, the same rewriting may be missed.
	r2 := NewRewriter(vs)
	r2.Opt.SkipMinimize = true
	rw2 := r2.RewriteOne(q)
	if rw2 != nil && len(rw2.Query.Body) > len(q.Body) {
		t.Fatalf("bound violated without minimisation: %v", rw2.Query)
	}
}

func TestRewritePartial(t *testing.T) {
	// Views cover only the r-atom; a partial rewriting keeps s.
	vs := views("v(A,C) :- r(A,C)")
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	r := NewRewriter(vs)
	if r.RewriteOne(q) != nil {
		t.Fatal("complete rewriting should not exist")
	}
	r.Opt.AllowPartial = true
	rw := r.RewriteOne(q)
	if rw == nil {
		t.Fatal("partial rewriting not found")
	}
	if rw.Complete {
		t.Fatal("partial rewriting flagged complete")
	}
	preds := map[string]bool{}
	for _, a := range rw.Query.Body {
		preds[a.Pred] = true
	}
	if !preds["v"] || !preds["s"] {
		t.Fatalf("partial rewriting shape wrong: %v", rw.Query)
	}
}

// TestRewritePartialInQueryOrder: a partial rewriting lists its atoms in the
// order of the query atoms they stand for, base atom first here, and is
// still flagged partial.
func TestRewritePartialInQueryOrder(t *testing.T) {
	vs := views("v(C,B) :- s(C,B)")
	r := NewRewriter(vs)
	r.Opt.AllowPartial = true
	rw := r.RewriteOne(mustQ("q(X,Y) :- r(X,Z), s(Z,Y)"))
	if rw == nil || rw.Complete || rw.Query.String() != "q(X,Y) :- r(X,Z), v(Z,Y)." {
		t.Fatalf("partial rewriting = %+v", rw)
	}
}

func TestRewriteUncoverablePredicate(t *testing.T) {
	// s occurs only in u, which also needs flag, a predicate q lacks: no
	// view can cover s(Z,Y), so the search stops before it minimises q or
	// applies v.
	vs := views("v(A,C) :- r(A,C)", "u(A,B) :- s(A,B), flag(A)")
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	r := NewRewriter(vs)
	r.Opt.MaxResults = AllRewritings
	res, st := r.Rewrite(q)
	if len(res) != 0 || st != (Stats{}) {
		t.Fatalf("rewritings %v, stats %+v; want none and no work", res, st)
	}
	r.Opt.AllowPartial = true
	res, st = r.Rewrite(q)
	if len(res) == 0 || st.Applications == 0 {
		t.Fatalf("partial rewritings %v, stats %+v", res, st)
	}
	for _, rw := range res {
		if rw.Complete || !slices.ContainsFunc(rw.Query.Body, func(a cq.Atom) bool { return a.Pred == "s" }) {
			t.Fatalf("partial rewriting %v must keep s", rw.Query)
		}
	}
}

func TestRewritePartialNeverAllBase(t *testing.T) {
	vs := views("v(A) :- t(A)")
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	r := NewRewriter(vs)
	r.Opt.AllowPartial = true
	r.Opt.MaxResults = AllRewritings
	res, _ := r.Rewrite(q)
	for _, rw := range res {
		hasView := false
		for _, a := range rw.Query.Body {
			if vs.view(a.Pred) != nil {
				hasView = true
			}
		}
		if !hasView {
			t.Fatalf("all-base candidate returned: %v", rw.Query)
		}
	}
}

func TestRewriteWithComparisons(t *testing.T) {
	vs := views("v(A) :- r(A,B), A > 3")
	r := NewRewriter(vs)
	q := mustQ("q(X) :- r(X,Y), X > 3")
	rw := r.RewriteOne(q)
	if rw == nil {
		t.Fatal("no rewriting with matching comparisons")
	}
	if rw.Query.String() != "q(X) :- v(X)." {
		t.Fatalf("rewriting = %v", rw.Query)
	}
}

func TestRewriteKeepComparisons(t *testing.T) {
	// The view does not enforce X>3; the rewriting must re-assert it.
	vs := views("v(A) :- r(A,B)")
	q := mustQ("q(X) :- r(X,Y), X > 3")
	r := NewRewriter(vs)
	if r.RewriteOne(q) != nil {
		t.Fatal("rewriting without comparisons should fail")
	}
	r.Opt.KeepComparisons = true
	rw := r.RewriteOne(q)
	if rw == nil {
		t.Fatal("KeepComparisons rewriting not found")
	}
	if len(rw.Query.Comparisons) != 1 {
		t.Fatalf("rewriting = %v", rw.Query)
	}
}

func TestRewriteViewWithStrongerComparisonRejected(t *testing.T) {
	vs := views("v(A) :- r(A), A > 5")
	r := NewRewriter(vs)
	r.Opt.KeepComparisons = true
	q := mustQ("q(X) :- r(X), X > 3")
	if r.RewriteOne(q) != nil {
		t.Fatal("view with stronger filter accepted as equivalent")
	}
}

func TestRewriteMultipleResultsSorted(t *testing.T) {
	vs := views(
		"big(A,B) :- e(A,M), e(M,B)",
		"one(A,B) :- e(A,B)",
	)
	r := NewRewriter(vs)
	r.Opt.MaxResults = AllRewritings
	q := mustQ("q(X,Y) :- e(X,M), e(M,Y)")
	res, st := r.Rewrite(q)
	if len(res) < 2 {
		t.Fatalf("want >= 2 rewritings, got %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if len(res[i-1].Query.Body) > len(res[i].Query.Body) {
			t.Fatal("results not sorted by body length")
		}
	}
	if st.RewritingsFound != len(res) || st.CandidatesTried < len(res) {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestRewriteStats(t *testing.T) {
	vs := views("v(A,B) :- r(A,C), s(C,B)")
	r := NewRewriter(vs)
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	_, st := r.Rewrite(q)
	if st.Applications == 0 || st.CandidatesTried == 0 || st.MinimizedBodyAtoms != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRewriteHeadConstants(t *testing.T) {
	vs := views("v(A,B) :- r(A,B)")
	r := NewRewriter(vs)
	q := mustQ("q(X,c) :- r(X,Y)")
	rw := r.RewriteOne(q)
	if rw == nil {
		t.Fatal("no rewriting for head-constant query")
	}
	if rw.Query.Head.Args[1] != cq.Const("c") {
		t.Fatalf("head constant lost: %v", rw.Query)
	}
}

func TestRewriteSelfJoinViews(t *testing.T) {
	// Query is a triangle; view is an edge pair. Rewriting needs three
	// applications of the same view with different argument bindings.
	vs := views("v(A,B) :- e(A,B)")
	r := NewRewriter(vs)
	q := mustQ("q(X) :- e(X,Y), e(Y,Z), e(Z,X)")
	rw := r.RewriteOne(q)
	if rw == nil {
		t.Fatal("triangle rewriting not found")
	}
	if len(rw.Query.Body) != 3 {
		t.Fatalf("rewriting = %v", rw.Query)
	}
}
