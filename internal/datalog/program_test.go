package datalog

import (
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/storage"
)

// newProgram builds a program from rules.
func newProgram(rules ...Rule) *Program { return &Program{Rules: rules} }

func TestProgramNonRecursive(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"})
	p := newProgram(RuleFromQuery(mustQ("hop(X,Z) :- e(X,Y), e(Y,Z)")))
	out, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("hop").Len() != 1 {
		t.Fatalf("hop = %v", out.Relation("hop").Tuples())
	}
	if db.Relation("hop") != nil {
		t.Fatal("Eval mutated the input database")
	}
}

func TestProgramTransitiveClosure(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	out, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.Tuple{
		{"a", "b"}, {"a", "c"}, {"a", "d"},
		{"b", "c"}, {"b", "d"},
		{"c", "d"},
	}
	got := out.Relation("tc").Tuples()
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("tc = %v want %v", got, want)
	}
}

func TestProgramTransitiveClosureCycle(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "a"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), tc(Y,Z)")),
	)
	out, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("tc").Len() != 4 { // ab, ba, aa, bb
		t.Fatalf("tc = %v", out.Relation("tc").Tuples())
	}
}

func TestSkolemValues(t *testing.T) {
	s := Skolem{Name: "f1", Args: []string{"X", "Y"}}
	v, ok := s.Value(Bindings{"X": "a", "Y": "b"})
	if !ok || !IsSkolemValue(v) {
		t.Fatalf("Value = %q, %v", v, ok)
	}
	v2, _ := s.Value(Bindings{"X": "a", "Y": "c"})
	if v == v2 {
		t.Fatal("distinct arguments gave equal Skolem values")
	}
	same, _ := s.Value(Bindings{"X": "a", "Y": "b"})
	if v != same {
		t.Fatal("same arguments gave different Skolem values")
	}
	if _, ok := s.Value(Bindings{"X": "a"}); ok {
		t.Fatal("unbound argument accepted")
	}
	if IsSkolemValue("plain") {
		t.Fatal("plain value reported Skolem")
	}
	if !HasSkolem(storage.Tuple{"a", v}) || HasSkolem(storage.Tuple{"a", "b"}) {
		t.Fatal("HasSkolem wrong")
	}
	if s.String() != "f1(X,Y)" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestProgramWithSkolemHeads(t *testing.T) {
	// Inverse-rule shape: from v(X) recover r(X, f(X)).
	db := storage.NewDatabase()
	db.Insert("v", storage.Tuple{"a"})
	db.Insert("v", storage.Tuple{"b"})
	rule := Rule{
		HeadPred: "r",
		Head: []HeadTerm{
			{Term: cq.Var("X")},
			{Skolem: &Skolem{Name: "f0", Args: []string{"X"}}},
		},
		Body: []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
	}
	out, err := newProgram(rule).Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	r := out.Relation("r")
	if r.Len() != 2 {
		t.Fatalf("r = %v", r.Tuples())
	}
	for _, tup := range r.Tuples() {
		if IsSkolemValue(tup[0]) || !IsSkolemValue(tup[1]) {
			t.Fatalf("tuple shape wrong: %v", tup)
		}
	}
	// Skolem joins: both rules produce the same skolem value for the same
	// argument, so a join through the second column succeeds.
	p2 := newProgram(
		rule,
		Rule{
			HeadPred: "s",
			Head: []HeadTerm{
				{Skolem: &Skolem{Name: "f0", Args: []string{"X"}}},
			},
			Body: []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
		},
		RuleFromQuery(mustQ("joined(X) :- r(X,W), s(W)")),
	)
	out2, err := p2.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Relation("joined").Len() != 2 {
		t.Fatalf("joined = %v", out2.Relation("joined").Tuples())
	}
}

func TestProgramRuleWithComparisons(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("n", storage.Tuple{"1"})
	db.Insert("n", storage.Tuple{"5"})
	p := newProgram(RuleFromQuery(mustQ("big(X) :- n(X), X > 3")))
	out, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(out.Relation("big").Tuples(), []storage.Tuple{{"5"}}) {
		t.Fatalf("big = %v", out.Relation("big").Tuples())
	}
}

func TestProgramString(t *testing.T) {
	rule := Rule{
		HeadPred: "r",
		Head: []HeadTerm{
			{Term: cq.Var("X")},
			{Skolem: &Skolem{Name: "f0", Args: []string{"X"}}},
		},
		Body: []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
	}
	p := newProgram(rule, RuleFromQuery(mustQ("q(X) :- r(X,Y), X < 3")))
	s := p.String()
	if !strings.Contains(s, "r(X,f0(X)) :- v(X).") {
		t.Fatalf("program string:\n%s", s)
	}
	if !strings.Contains(s, "q(X) :- r(X,Y), X < 3.") {
		t.Fatalf("program string:\n%s", s)
	}
}

func TestProgramHeadConstant(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("v", storage.Tuple{"a"})
	rule := Rule{
		HeadPred: "tagged",
		Head:     []HeadTerm{{Term: cq.Var("X")}, {Term: cq.Const("k")}},
		Body:     []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
	}
	out, err := newProgram(rule).Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(out.Relation("tagged").Tuples(), []storage.Tuple{{"a", "k"}}) {
		t.Fatalf("tagged = %v", out.Relation("tagged").Tuples())
	}
}

func TestProgramUnboundHeadVarErrors(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("v", storage.Tuple{"a"})
	rule := Rule{
		HeadPred: "bad",
		Head:     []HeadTerm{{Term: cq.Var("Z")}},
		Body:     []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
	}
	if _, err := newProgram(rule).Eval(db); err == nil {
		t.Fatal("unsafe rule evaluated without error")
	}
}
