package minicon

import (
	"testing"

	"repro/internal/bucket"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

func mustQ(src string) *cq.Query { return cq.MustParseQuery(src) }

func viewSet(srcs ...string) *core.ViewSet {
	vs := make([]*cq.Query, len(srcs))
	for i, s := range srcs {
		vs[i] = mustQ(s)
	}
	return core.MustNewViewSet(vs...)
}

// formMCDs enumerates the minimal MCDs of every view against q, in the
// order Rewrite combines them.
func formMCDs(q *cq.Query, vs *core.ViewSet) []*MCD {
	return acquireFormer(q, vs).form() // never released: the MCDs stay valid
}

// Covers returns the covered subgoal indices (sorted).
func (m *MCD) Covers() []int {
	out := make([]int, len(m.covers))
	for i, c := range m.covers {
		out[i] = int(c)
	}
	return out
}

func TestFormMCDsBasic(t *testing.T) {
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	vs := viewSet("v1(A,B) :- r(A,B)", "v2(A,B) :- s(A,B)")
	mcds := formMCDs(q, vs)
	if len(mcds) != 2 {
		t.Fatalf("MCDs = %v", mcds)
	}
	for _, m := range mcds {
		if len(m.Covers()) != 1 {
			t.Fatalf("MCD covers = %v", m.Covers())
		}
		_ = m.String()
	}
}

func TestFormMCDsExtendsOverHiddenVar(t *testing.T) {
	// The view hides B, so covering r(X,Z) forces covering s(Z) too —
	// the defining MiniCon behaviour.
	q := mustQ("q(X) :- r(X,Z), s(Z)")
	vs := viewSet("v(A) :- r(A,B), s(B)")
	mcds := formMCDs(q, vs)
	if len(mcds) != 1 {
		t.Fatalf("MCDs = %v", mcds)
	}
	if got := mcds[0].Covers(); len(got) != 2 {
		t.Fatalf("MCD must cover both subgoals, got %v", got)
	}
}

func TestFormMCDsFailsWhenExtensionImpossible(t *testing.T) {
	// The view hides B but has no s-atom to cover s(Z): no MCD.
	q := mustQ("q(X) :- r(X,Z), s(Z)")
	vs := viewSet("v(A) :- r(A,B)")
	if mcds := formMCDs(q, vs); len(mcds) != 0 {
		t.Fatalf("MCDs = %v", mcds)
	}
}

func TestFormMCDsHeadVarOnExistentialFails(t *testing.T) {
	q := mustQ("q(X,Y) :- r(X,Y)")
	vs := viewSet("v(A) :- r(A,B)")
	if mcds := formMCDs(q, vs); len(mcds) != 0 {
		t.Fatalf("MCDs = %v", mcds)
	}
}

func TestFormMCDsConstants(t *testing.T) {
	// Constant in the query against a distinguished view variable: ok.
	q := mustQ("q(X) :- r(X,5)")
	vs := viewSet("v(A,B) :- r(A,B)")
	mcds := formMCDs(q, vs)
	if len(mcds) != 1 {
		t.Fatalf("MCDs = %v", mcds)
	}
	// Against an existential: no MCD.
	vs2 := viewSet("w(A) :- r(A,B)")
	if m := formMCDs(q, vs2); len(m) != 0 {
		t.Fatalf("MCDs = %v", m)
	}
	// Against the same constant in the view: ok.
	vs3 := viewSet("u(A) :- r(A,5)")
	if m := formMCDs(q, vs3); len(m) != 1 {
		t.Fatalf("MCDs = %v", m)
	}
	// Against a different constant: no MCD.
	vs4 := viewSet("z(A) :- r(A,7)")
	if m := formMCDs(q, vs4); len(m) != 0 {
		t.Fatalf("MCDs = %v", m)
	}
}

func TestFormMCDsBranchingClosure(t *testing.T) {
	// Covering t(W,Y) can use t(C,D) (Y on D) or t(C,1) (Y bound to the
	// constant): the exhaustive closure must produce both variants, since
	// they combine differently.
	q := mustQ("q(X) :- r(X,Z), s(Z,W), t(W,Y)")
	vs := viewSet("v(A) :- r(A,B), s(B,C), t(C,D), t(C,1)")
	mcds := formMCDs(q, vs)
	var ys []string
	for _, m := range mcds {
		if len(m.Covers()) == 3 {
			img, _ := m.image("Y")
			ys = append(ys, img.String())
		}
	}
	if len(ys) != 2 || ys[0] != "D" || ys[1] != "1" {
		t.Fatalf("full covers map Y to %v, want [D 1] (%v)", ys, mcds)
	}

	// The head homomorphism maps distinguished variables only: once W lands
	// on the existential C, t(W) may not be covered by t(1), so the only
	// full cover keeps W on C.
	q = mustQ("q(X) :- r(X,Z), s(Z,W), t(W)")
	vs = viewSet("v(A) :- r(A,B), s(B,C), t(1), t(C)")
	for _, m := range formMCDs(q, vs) {
		if img, _ := m.image("W"); len(m.Covers()) == 3 && img.IsConst() {
			t.Fatalf("existential bound to a constant: %v", m)
		}
	}
}

// TestRandom174SoundWithoutVerification is the smallest theorem case (random,
// seed 174) whose unverified union held an unsound member while MCD
// formation could equate an existential: covering p3(X0,X0) with v0's
// p3(A,B) merged the existential B into A, so q(X0) :- v0(X0), v3(X0,X2)
// was formed, whose expansion has no p3(Y,Y) atom. No view can produce
// one, so the maximally-contained rewriting is empty.
func TestRandom174SoundWithoutVerification(t *testing.T) {
	q := mustQ("q(X1) :- p3(X0,X0), p3(X1,X0), p1(X0,X2)")
	vs := viewSet("v0(A) :- p3(A,B), p1(B,C)", "v3(A,B) :- p1(A,B)")
	u, _, err := Rewrite(q, vs, Options{SkipMinimizeUnion: true})
	if err != nil || u.Len() != 0 {
		t.Fatalf("union %v, err %v; want none", u, err)
	}
}

func TestRewriteEquivalentCase(t *testing.T) {
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	vs := viewSet("v1(A,B) :- r(A,B)", "v2(A,B) :- s(A,B)")
	u, st, err := Rewrite(q, vs, Options{VerifyCandidates: true})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() == 0 {
		t.Fatal("no rewriting found")
	}
	exp, _ := core.ExpandUnion(u, vs)
	if !containment.UnionContained(exp, q) || !containment.ContainedInUnion(q, exp) {
		t.Fatalf("rewriting not equivalent: %v", u)
	}
	if st.MCDs == 0 || st.Kept == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRewriteSoundWithoutVerification(t *testing.T) {
	// The MiniCon property must make unverified combinations sound.
	q := mustQ("q(X) :- r(X,Z), s(Z), t(X)")
	vs := viewSet(
		"v1(A) :- r(A,B), s(B)",
		"v2(A) :- t(A)",
		"v3(A,B) :- r(A,B)",
		"v4(A) :- s(A)",
	)
	u, _, err := Rewrite(q, vs, Options{VerifyCandidates: false, SkipMinimizeUnion: true})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() == 0 {
		t.Fatal("no rewritings")
	}
	for _, m := range u.Queries {
		exp, err := core.Expand(m, vs)
		if err != nil {
			t.Fatalf("expand %v: %v", m, err)
		}
		if !containment.Contained(exp, q) {
			t.Fatalf("unverified member unsound: %v (exp %v)", m, exp)
		}
	}
}

func TestRewriteSharedExistentialAcrossViews(t *testing.T) {
	// Both views expose the join variable: two MCDs combine.
	q := mustQ("q(X) :- r(X,Z), s(Z)")
	vs := viewSet("v3(A,B) :- r(A,B)", "v4(A) :- s(A)")
	u, _, err := Rewrite(q, vs, Options{VerifyCandidates: true})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 1 {
		t.Fatalf("union = %v", u)
	}
	if len(u.Queries[0].Body) != 2 {
		t.Fatalf("rewriting = %v", u.Queries[0])
	}
}

func TestRewriteAgainstBucketAgreement(t *testing.T) {
	// On pure-CQ workloads the two algorithms must produce semantically
	// equal maximally-contained rewritings.
	cases := []struct {
		q     string
		views []string
	}{
		{
			"q(X,Y) :- r(X,Z), s(Z,Y)",
			[]string{"v1(A,B) :- r(A,B)", "v2(A,B) :- s(A,B)", "v3(A,B) :- r(A,M), s(M,B)"},
		},
		{
			"q(X) :- r(X,Z), s(Z), t(X)",
			[]string{"v1(A) :- r(A,B), s(B)", "v2(A) :- t(A)"},
		},
		{
			"q(X,Y) :- e(X,M), e(M,Y)",
			[]string{"v(A,B) :- e(A,B)"},
		},
		{
			"q(X) :- e(X,Y), e(Y,X)",
			[]string{"v(A,B) :- e(A,B)", "w(A) :- e(A,A)"},
		},
	}
	for _, c := range cases {
		q := mustQ(c.q)
		qs := make([]*cq.Query, len(c.views))
		for i, s := range c.views {
			qs[i] = mustQ(s)
		}
		vs := core.MustNewViewSet(qs...)
		mu, _, err := Rewrite(q, vs, Options{VerifyCandidates: true})
		if err != nil {
			t.Fatal(err)
		}
		bu, _, err := bucket.Rewrite(q, vs, Options2Bucket())
		if err != nil {
			t.Fatal(err)
		}
		me, _ := core.ExpandUnion(mu, vs)
		be, _ := core.ExpandUnion(bu, vs)
		if !containment.UnionContainedInUnion(me, be) || !containment.UnionContainedInUnion(be, me) {
			t.Errorf("MiniCon and Bucket disagree on %q:\nMiniCon: %v\nBucket: %v", c.q, mu, bu)
		}
	}
}

// Options2Bucket returns default bucket options for the agreement test.
func Options2Bucket() bucket.Options { return bucket.Options{} }

func TestRewriteEvaluationMatchesDirect(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("r", storage.Tuple{"b", "n"})
	base.Insert("s", storage.Tuple{"m", "x"})
	base.Insert("t", storage.Tuple{"a"})
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y), t(X)")
	views := []*cq.Query{
		mustQ("v1(A,B,C) :- r(A,B), s(B,C)"),
		mustQ("v2(A) :- t(A)"),
	}
	vs := core.MustNewViewSet(views...)
	u, _, err := Rewrite(q, vs, Options{VerifyCandidates: true})
	if err != nil {
		t.Fatal(err)
	}
	viewDB, _ := datalog.MaterializeViews(base, views)
	got := datalog.EvalUnion(viewDB, u)
	want := datalog.EvalQuery(base, q)
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("rewriting answers %v, direct %v", got, want)
	}
}

func TestRewriteEmptyWhenNoMCDs(t *testing.T) {
	q := mustQ("q(X) :- hidden(X)")
	vs := viewSet("v(A) :- r(A)")
	u, st, err := Rewrite(q, vs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 0 || st.MCDs != 0 {
		t.Fatalf("expected empty result: %v %+v", u, st)
	}
}

func TestRewriteInvalidQuery(t *testing.T) {
	bad := &cq.Query{Head: cq.NewAtom("q", cq.Var("X"))}
	if _, _, err := Rewrite(bad, viewSet("v(A) :- r(A)"), Options{}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestRewriteWithComparisons(t *testing.T) {
	q := mustQ("q(X) :- r(X,Y), X > 3")
	vs := viewSet("v(A,B) :- r(A,B)")
	u, _, err := Rewrite(q, vs, Options{VerifyCandidates: true, KeepComparisons: true})
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() == 0 || len(u.Queries[0].Comparisons) != 1 {
		t.Fatalf("rewriting = %v", u)
	}
}
