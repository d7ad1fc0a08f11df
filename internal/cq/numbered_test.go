package cq

import (
	"slices"
	"testing"
)

func TestNumber(t *testing.T) {
	q := MustParseQuery("q(X,a,Y) :- r(X,Z), s(Z,b,Y,Z), t(W), Z < 5, W != X")
	n := Number(q)
	// Ids follow first occurrence over head, body, comparisons: the order of Vars.
	var want []string
	for _, v := range q.Vars() {
		want = append(want, v.Lex)
	}
	if !slices.Equal(n.Names, want) || n.NumVars() != len(want) {
		t.Fatalf("Names = %v, want %v", n.Names, want)
	}
	id := func(name string) int32 {
		t.Helper()
		v := n.ID(name)
		if v < 0 {
			t.Fatalf("no id for %s", name)
		}
		return v
	}
	if got := n.ID("Nope"); got != -1 {
		t.Errorf("ID of an absent variable = %d", got)
	}
	if got, want := n.Head(), []int32{id("X"), ConstArg, id("Y")}; !slices.Equal(got, want) {
		t.Errorf("Head = %v, want %v", got, want)
	}
	if got, want := n.Atom(1), []int32{id("Z"), ConstArg, id("Y"), id("Z")}; !slices.Equal(got, want) {
		t.Errorf("Atom(1) = %v, want %v", got, want)
	}
	if got, want := n.Atom(2), []int32{id("W")}; !slices.Equal(got, want) {
		t.Errorf("Atom(2) = %v, want %v", got, want)
	}
	if l, r := n.Comparison(0); l != id("Z") || r != ConstArg {
		t.Errorf("Comparison(0) = %d, %d", l, r)
	}
	if l, r := n.Comparison(1); l != id("W") || r != id("X") {
		t.Errorf("Comparison(1) = %d, %d", l, r)
	}
}

// TestValidAgreesWithValidate: Valid is Validate without the error value.
func TestValidAgreesWithValidate(t *testing.T) {
	for _, q := range []*Query{
		MustParseQuery("q(X) :- r(X,Y), s(Y)"),
		{Head: NewAtom("q", Var("X"))}, // empty body
		NewQuery(NewAtom("q", Var("X")), NewAtom("r", Var("X")), NewAtom("s", Var("X")), NewAtom("r", Var("X"), Var("Y"))), // mixed arity
		NewQuery(NewAtom("q", Var("X")), NewAtom("r", Var("Y"))),                                                           // unsafe head
		NewQuery(NewAtom("q", Var("X")), NewAtom("r", Var("X"))).AddComparison(NewComparison(Var("Z"), Lt, Const("3"))),    // unsafe comparison
		NewQuery(NewAtom("q", Const("a")), NewAtom("r", Var("X"))).AddComparison(NewComparison(Var("X"), Lt, Const("3"))),  // fine
	} {
		if err := q.Validate(); q.Valid() != (err == nil) {
			t.Errorf("%s: Valid = %v, Validate = %v", q, q.Valid(), err)
		}
	}
}
