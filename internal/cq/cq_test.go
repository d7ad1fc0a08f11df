package cq

import (
	"strings"
	"testing"
)

func TestTermBasics(t *testing.T) {
	v := Var("X")
	if !v.IsVar() || v.IsConst() {
		t.Fatalf("Var(X) kind wrong: %+v", v)
	}
	c := Const("abc")
	if c.IsVar() || !c.IsConst() {
		t.Fatalf("Const(abc) kind wrong: %+v", c)
	}
	if v == c {
		t.Fatal("distinct terms compare equal")
	}
	if got := IntConst(42).Lex; got != "42" {
		t.Fatalf("IntConst lexeme = %q", got)
	}
}

func TestTermNum(t *testing.T) {
	cases := []struct {
		term Term
		want float64
		ok   bool
	}{
		{Const("5"), 5, true},
		{Const("-3"), -3, true},
		{Const("2.5"), 2.5, true},
		{Const("abc"), 0, false},
		{Var("X"), 0, false},
	}
	for _, c := range cases {
		got, ok := c.term.Num()
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Num(%v) = %v,%v want %v,%v", c.term, got, ok, c.want, c.ok)
		}
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{Var("X"), "X"},
		{Const("abc"), "abc"},
		{Const("5"), "5"},
		{Const("-2.5"), "-2.5"},
		{Const("Upper"), "'Upper'"},
		{Const("has space"), "'has space'"},
		{Const(""), "''"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q want %q", c.term, got, c.want)
		}
	}
}

func TestCompareConst(t *testing.T) {
	cases := []struct {
		a, b Term
		want int
	}{
		{Const("1"), Const("2"), -1},
		{Const("2"), Const("2"), 0},
		{Const("10"), Const("9"), 1}, // numeric, not lexicographic
		{Const("a"), Const("b"), -1},
		{Const("b"), Const("a"), 1},
		{Const("a"), Const("a"), 0},
	}
	for _, c := range cases {
		if got := CompareConst(c.a, c.b); got != c.want {
			t.Errorf("CompareConst(%v,%v) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareConstPanicsOnVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on variable operand")
		}
	}()
	CompareConst(Var("X"), Const("1"))
}

func TestAtomBasics(t *testing.T) {
	a := NewAtom("r", Var("X"), Const("a"))
	if a.IsGround() {
		t.Fatal("atom with variable reported ground")
	}
	g := NewAtom("r", Const("a"), Const("b"))
	if !g.IsGround() {
		t.Fatal("ground atom not reported ground")
	}
	if a.String() != "r(X,a)" {
		t.Fatalf("String = %q", a.String())
	}
	b := a.Clone()
	b.Args[0] = Const("z")
	if a.Args[0] != Var("X") {
		t.Fatal("Clone shares argument slice")
	}
	if !a.Equal(NewAtom("r", Var("X"), Const("a"))) {
		t.Fatal("Equal failed on identical atoms")
	}
	if a.Equal(NewAtom("r", Var("X"))) || a.Equal(NewAtom("s", Var("X"), Const("a"))) {
		t.Fatal("Equal matched distinct atoms")
	}
}

func TestCompOpFlipNegate(t *testing.T) {
	ops := []CompOp{Lt, Le, Gt, Ge, Eq, Ne}
	for _, op := range ops {
		if op.Flip().Flip() != op {
			t.Errorf("Flip not involutive on %v", op)
		}
		if op.Negate().Negate() != op {
			t.Errorf("Negate not involutive on %v", op)
		}
	}
	if Lt.Flip() != Gt || Le.Flip() != Ge || Eq.Flip() != Eq || Ne.Flip() != Ne {
		t.Error("Flip wrong")
	}
	if Lt.Negate() != Ge || Eq.Negate() != Ne {
		t.Error("Negate wrong")
	}
}

func TestCompOpEvalConst(t *testing.T) {
	one, two := Const("1"), Const("2")
	cases := []struct {
		op   CompOp
		a, b Term
		want bool
	}{
		{Lt, one, two, true},
		{Lt, two, one, false},
		{Le, one, one, true},
		{Gt, two, one, true},
		{Ge, one, two, false},
		{Eq, one, one, true},
		{Ne, one, two, true},
		{Ne, one, one, false},
	}
	for _, c := range cases {
		if got := c.op.EvalConst(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestComparisonNormalize(t *testing.T) {
	x, y := Var("X"), Var("Y")
	gt := NewComparison(x, Gt, y)
	n := gt.Normalize()
	if n.Op != Lt || n.Left != y || n.Right != x {
		t.Fatalf("Normalize(X>Y) = %v", n)
	}
	eq1 := NewComparison(y, Eq, x).Normalize()
	eq2 := NewComparison(x, Eq, y).Normalize()
	if eq1 != eq2 {
		t.Fatalf("Eq normalisation not canonical: %v vs %v", eq1, eq2)
	}
	if NewComparison(x, Gt, y).Normalize() != NewComparison(y, Lt, x).Normalize() {
		t.Fatal("X>Y should equal Y<X")
	}
}

func TestQueryVarsAndConstants(t *testing.T) {
	q := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y,a), Z < 5, W = W, t(W)")
	vars := q.Vars()
	want := []string{"X", "Y", "Z", "W"}
	if len(vars) != len(want) {
		t.Fatalf("Vars = %v", vars)
	}
	for i, w := range want {
		if vars[i].Lex != w {
			t.Errorf("Vars[%d] = %v want %s", i, vars[i], w)
		}
	}
	consts := q.Constants()
	if len(consts) != 2 {
		t.Fatalf("Constants = %v", consts)
	}
	preds := q.Predicates()
	if len(preds) != 3 || preds[0] != "r" || preds[1] != "s" || preds[2] != "t" {
		t.Fatalf("Predicates = %v", preds)
	}
}

func TestQueryValidate(t *testing.T) {
	good := MustParseQuery("q(X) :- r(X,Y), Y < 3")
	if err := good.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	cases := []struct {
		src  string
		frag string
	}{
		{"q(X) :- r(Y)", "unsafe"},
		{"q(X) :- r(X), X < Z", "unsafe"},
		{"q(X) :- r(X), r(X,X)", "arities"},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		err = q.Validate()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Validate(%q) = %v, want error containing %q", c.src, err, c.frag)
		}
	}
	empty := &Query{Head: NewAtom("q", Var("X"))}
	if err := empty.Validate(); err == nil {
		t.Error("empty body accepted")
	}
}

func TestQueryCloneIndependence(t *testing.T) {
	q := MustParseQuery("q(X) :- r(X,Y), Y < 3")
	c := q.Clone()
	c.Body[0].Args[0] = Const("mut")
	c.Comparisons[0].Op = Gt
	if q.Body[0].Args[0] != Var("X") || q.Comparisons[0].Op != Lt {
		t.Fatal("Clone shares state with original")
	}

	// A clone's atoms are windows onto one array of terms: appending to one
	// atom's arguments must leave its neighbours, the head and the original
	// as they were.
	const src = "q(X,Z) :- r(X,Y), s(Y,Z), t(Z,X)."
	q = MustParseQuery(src)
	c = q.Clone()
	c.Body[0].Args = append(c.Body[0].Args, Const("extra"))
	c.Body[1].Args = append(c.Body[1].Args, Const("extra"))
	if got := c.String(); got != "q(X,Z) :- r(X,Y,extra), s(Y,Z,extra), t(Z,X)." {
		t.Fatalf("appending to cloned atoms gave %s", got)
	}
	c.Body[2].Args = append(c.Body[2].Args, Const("extra"))
	if c.Head.Args[0] != Var("X") || len(c.Head.Args) != 2 || q.String() != src {
		t.Fatalf("appending to the last atom wrote into the head or the original: %s, original %s", c, q)
	}

	// PlanQuery appends the placeholders to a clone's head; appending to
	// that head again must not reach the body or the template.
	tmpl := CanonicalizeTemplate(MustParseQuery("q(X) :- r(X,Y), s(Y,c1)"))
	want := tmpl.Query.String()
	pq := tmpl.PlanQuery()
	_, body, _ := strings.Cut(pq.String(), " :- ")
	pq.Head.Args = append(pq.Head.Args, Const("extra"))
	_, after, _ := strings.Cut(pq.String(), " :- ")
	if tmpl.Query.String() != want || after != body {
		t.Fatalf("appending to PlanQuery's head changed the template %s (was %s) or the body %s (was %s)", tmpl.Query, want, after, body)
	}
}

// TestQueryCloneAllocs guards what a deep copy allocates: the query, its
// body and one array of terms for every atom's and the head's arguments,
// whatever the body length. Each atom and the head had its own array before,
// 2 + atoms + head allocations (6 for three atoms).
func TestQueryCloneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, src := range []string{
		"q(X) :- r(X,Y)",
		"q(X3) :- p1(c0,X1), p2(X1,X2), p3(X2,X3)",
		"q(X0,X9) :- p0(X0,X1), p1(X1,X2), p2(X2,X3), p3(X3,X4), p4(X4,X5), p5(X5,X6), p6(X6,X7), p7(X7,X8), p8(X8,X9)",
	} {
		q := MustParseQuery(src)
		if got := testing.AllocsPerRun(100, func() { q.Clone() }); got > 3 {
			t.Errorf("%s: Clone made %.0f allocations, want at most 3", src, got)
		}
	}
}

func TestQueryString(t *testing.T) {
	src := "q(X,Y) :- r(X,Z), s(Z,Y), Z < 5."
	q := MustParseQuery(src)
	if got := q.String(); got != src {
		t.Fatalf("String = %q want %q", got, src)
	}
}

func TestCanonicalString(t *testing.T) {
	a := MustParseQuery("q(X) :- r(X,Y), s(Y), Y > 2")
	b := MustParseQuery("q(X) :- s(Y), r(X,Y), 2 < Y")
	if canonicalString(a) != canonicalString(b) {
		t.Fatalf("canonical strings differ:\n%s\n%s", canonicalString(a), canonicalString(b))
	}
}

func TestUnion(t *testing.T) {
	u := NewUnion(
		MustParseQuery("q(X) :- r(X)"),
		MustParseQuery("q(X) :- s(X)"),
	)
	if u.Len() != 2 {
		t.Fatalf("Len = %d", u.Len())
	}
	var empty *Union
	if empty.Len() != 0 {
		t.Fatal("nil union Len != 0")
	}
	if (&Union{}).String() != "<empty union>" {
		t.Fatal("empty union String")
	}
}

func TestSubstApply(t *testing.T) {
	s := Subst{"X": Const("a"), "Y": Var("Z")}
	q := MustParseQuery("q(X,Y) :- r(X,Y), X < Y")
	out := s.ApplyQuery(q)
	want := "q(a,Z) :- r(a,Z), a < Z."
	if out.String() != want {
		t.Fatalf("ApplyQuery = %q want %q", out.String(), want)
	}
	// Original untouched.
	if q.Head.Args[0] != Var("X") {
		t.Fatal("ApplyQuery mutated input")
	}
}

func TestSubstBind(t *testing.T) {
	s := NewSubst()
	if !s.Bind("X", Const("a")) {
		t.Fatal("first Bind failed")
	}
	if !s.Bind("X", Const("a")) {
		t.Fatal("re-Bind with same value failed")
	}
	if s.Bind("X", Const("b")) {
		t.Fatal("conflicting Bind succeeded")
	}
}

func TestUnifyTerms(t *testing.T) {
	s := NewSubst()
	if !s.UnifyTerms(Var("X"), Const("a")) {
		t.Fatal("unify var/const failed")
	}
	if !s.UnifyTerms(Var("X"), Const("a")) {
		t.Fatal("unify repeated failed")
	}
	if s.UnifyTerms(Var("X"), Const("b")) {
		t.Fatal("conflicting unify succeeded")
	}
	s2 := NewSubst()
	if !s2.UnifyTerms(Var("X"), Var("Y")) {
		t.Fatal("var-var unify failed")
	}
	if !s2.UnifyTerms(Var("X"), Const("c")) {
		t.Fatal("chained unify failed")
	}
	if s2.ApplyTerm(s2.ApplyTerm(Var("X"))) != Const("c") {
		t.Fatal("chain does not resolve to c")
	}
}

func TestMatchAtom(t *testing.T) {
	s := NewSubst()
	pat := NewAtom("r", Var("X"), Var("X"))
	tgt := NewAtom("r", Var("A"), Var("A"))
	if !s.MatchAtom(pat, tgt) {
		t.Fatal("match failed")
	}
	if s.ApplyTerm(Var("X")) != Var("A") {
		t.Fatalf("X -> %v", s.ApplyTerm(Var("X")))
	}
	// One-way: target variables are never bound.
	s2 := NewSubst()
	if s2.MatchAtom(NewAtom("r", Const("a")), NewAtom("r", Var("B"))) {
		t.Fatal("matched constant pattern against variable target")
	}
	// Repeated pattern variable must map consistently.
	s3 := NewSubst()
	if s3.MatchAtom(pat, NewAtom("r", Var("A"), Var("B"))) {
		t.Fatal("inconsistent repeated variable matched")
	}
}

func TestFreshener(t *testing.T) {
	q := MustParseQuery("q(V0) :- r(V0,V1)")
	f := NewFreshener("V")
	f.Reserve(q)
	v := f.Fresh()
	if v.Lex == "V0" || v.Lex == "V1" {
		t.Fatalf("Fresh collided: %v", v)
	}
	// Skip uses up the number Fresh would have taken, and reserved names
	// are passed over either way.
	f = NewFreshener("V")
	f.Reserve(q)
	f.Skip()
	if got := f.Fresh(); got.Lex != "V3" {
		t.Fatalf("after one Skip, Fresh = %v, want V3", got)
	}
	g := NewFreshener("V")
	g.ReserveName("V01") // not a name the generator can produce
	if got := g.Fresh(); got.Lex != "V0" {
		t.Fatalf("Fresh = %v, want V0", got)
	}
}
