package cq

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseQueryBasic(t *testing.T) {
	q, err := ParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name() != "q" || q.Arity() != 2 || len(q.Body) != 2 {
		t.Fatalf("parsed shape wrong: %v", q)
	}
	if q.Body[0].Pred != "r" || q.Body[1].Pred != "s" {
		t.Fatalf("body = %v", q.Body)
	}
}

func TestParseQueryWithComparisons(t *testing.T) {
	q := MustParseQuery("q(X) :- r(X,Y), X < 5, Y >= X, X != Y, Y = 3, 2 <= X")
	if len(q.Comparisons) != 5 {
		t.Fatalf("comparisons = %v", q.Comparisons)
	}
	ops := []CompOp{Lt, Ge, Ne, Eq, Le}
	for i, c := range q.Comparisons {
		if c.Op != ops[i] {
			t.Errorf("comparison %d op = %v want %v", i, c.Op, ops[i])
		}
	}
}

func TestParseConstantsAndVariables(t *testing.T) {
	q := MustParseQuery("q(X) :- r(X, abc, 'Hello World', 42, -7, 2.5, _tmp)")
	args := q.Body[0].Args
	want := []Term{Var("X"), Const("abc"), Const("Hello World"), Const("42"), Const("-7"), Const("2.5"), Var("_tmp")}
	if len(args) != len(want) {
		t.Fatalf("args = %v", args)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Errorf("arg %d = %v want %v", i, args[i], want[i])
		}
	}
}

func TestParseZeroArity(t *testing.T) {
	q, err := ParseQuery("q() :- r()")
	if err != nil {
		t.Fatal(err)
	}
	if q.Arity() != 0 || len(q.Body[0].Args) != 0 {
		t.Fatalf("zero-arity parse wrong: %v", q)
	}
}

func TestParseProgram(t *testing.T) {
	src := `
% views for the running example
v1(X,Y) :- r(X,Z), s(Z,Y).
v2(X) :- r(X,X).
# facts
r(a,b).
s(b,c).
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Queries) != 2 || len(prog.Facts) != 2 {
		t.Fatalf("program shape: %d queries, %d facts", len(prog.Queries), len(prog.Facts))
	}
	if prog.Facts[0].String() != "r(a,b)" || prog.Facts[1].String() != "s(b,c)" {
		t.Fatalf("facts = %v", prog.Facts)
	}
}

func TestParseViews(t *testing.T) {
	vs, err := ParseViews("v1(X) :- r(X). v2(Y) :- s(Y).")
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("views = %v", vs)
	}
	if _, err := ParseViews("v1(X) :- r(X). r(a)."); err == nil {
		t.Fatal("fact in view file accepted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"q(X) :-",
		"q(X :- r(X)",
		"q(X) :- r(X",
		"q(X) :- r(X) s(X)",
		":- r(X)",
		"q(X) :- r(X), <",
		"q(X)",          // fact with variable
		"q(X) :- r(X).", // trailing content below
	}
	for _, src := range cases[:7] {
		if _, err := ParseQuery(src); err == nil {
			t.Errorf("ParseQuery(%q) accepted", src)
		}
	}
	if _, err := ParseQuery("q(X) :- r(X). extra(Y) :- s(Y)."); err == nil {
		t.Error("trailing statement accepted by ParseQuery")
	}
	if _, err := ParseProgram("q(a) r(b)."); err == nil {
		t.Error("missing '.' between statements accepted")
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	_, err := ParseProgram("v1(X) :- r(X).\nv2(Y :- s(Y).")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}

func TestMustParseQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParseQuery("not a query")
}

func TestParsePrintRoundTrip(t *testing.T) {
	cases := []string{
		"q(X,Y) :- r(X,Z), s(Z,Y).",
		"q(X) :- r(X,X), X < 5.",
		"q() :- r(a,b).",
		"q(X,a) :- edge(X,Y), edge(Y,X), X != Y.",
		"q(X) :- r(X,'Hello World'), X >= -3.",
	}
	for _, src := range cases {
		q := MustParseQuery(src)
		if got := q.String(); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
		// Idempotence: parse the printed form again.
		q2 := MustParseQuery(q.String())
		if q2.String() != q.String() {
			t.Errorf("second round trip differs: %q vs %q", q2.String(), q.String())
		}
	}
}

// quickQuery builds a random but well-formed query from raw fuzz inputs.
func quickQuery(nPreds, nAtoms, nVars uint8) *Query {
	preds := []string{"r", "s", "t", "u"}
	np := int(nPreds)%len(preds) + 1
	na := int(nAtoms)%5 + 1
	nv := int(nVars)%6 + 1
	vars := make([]Term, nv)
	for i := range vars {
		vars[i] = Var("V" + string(rune('0'+i)))
	}
	body := make([]Atom, na)
	for i := range body {
		p := preds[i%np]
		body[i] = NewAtom(p, vars[i%nv], vars[(i+1)%nv])
	}
	return &Query{Head: NewAtom("q", vars[0]), Body: body}
}

func TestQuickParsePrintRoundTrip(t *testing.T) {
	f := func(a, b, c uint8) bool {
		q := quickQuery(a, b, c)
		parsed, err := ParseQuery(q.String())
		if err != nil {
			return false
		}
		return parsed.String() == q.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCanonicalStringOrderInsensitive(t *testing.T) {
	f := func(a, b, c uint8) bool {
		q := quickQuery(a, b, c)
		// Reverse the body.
		rev := q.Clone()
		for i, j := 0, len(rev.Body)-1; i < j; i, j = i+1, j-1 {
			rev.Body[i], rev.Body[j] = rev.Body[j], rev.Body[i]
		}
		return canonicalString(q) == canonicalString(rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
