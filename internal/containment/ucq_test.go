package containment

import (
	"testing"

	"repro/internal/cq"
)

func TestContainedInUnionPure(t *testing.T) {
	u := cq.NewUnion(
		mustQ("q(X) :- r(X,Y)"),
		mustQ("q(X) :- s(X)"),
	)
	if !ContainedInUnion(mustQ("q(X) :- r(X,Y), r(Y,Z)"), u) {
		t.Fatal("specialisation should be contained in union")
	}
	if !ContainedInUnion(mustQ("q(X) :- s(X), t(X)"), u) {
		t.Fatal("second disjunct should cover")
	}
	if ContainedInUnion(mustQ("q(X) :- t(X)"), u) {
		t.Fatal("uncovered query contained")
	}
	if ContainedInUnion(mustQ("q(X) :- r(X,Y)"), &cq.Union{}) {
		t.Fatal("empty union contains something")
	}
}

func TestUnionContained(t *testing.T) {
	u := cq.NewUnion(
		mustQ("q(X) :- r(X,Y), r(Y,Z)"),
		mustQ("q(X) :- r(X,X)"),
	)
	if !UnionContained(u, mustQ("q(X) :- r(X,Y)")) {
		t.Fatal("every member specialises r(X,Y)")
	}
	u.Add(mustQ("q(X) :- s(X)"))
	if UnionContained(u, mustQ("q(X) :- r(X,Y)")) {
		t.Fatal("s-member is not contained")
	}
}

func TestUnionContainedInUnion(t *testing.T) {
	small := cq.NewUnion(mustQ("q(X) :- r(X,X)"))
	big := cq.NewUnion(mustQ("q(X) :- r(X,Y)"), mustQ("q(X) :- s(X)"))
	if !UnionContainedInUnion(small, big) {
		t.Fatal("subset union not contained")
	}
	if UnionContainedInUnion(big, small) {
		t.Fatal("superset union contained in subset")
	}
}

func TestUnionEquivalent(t *testing.T) {
	q := mustQ("q(X) :- r(X,Y)")
	u := cq.NewUnion(
		mustQ("q(X) :- r(X,Y), r(Y,Z)"),
		mustQ("q(X) :- r(X,Y)"),
	)
	if !UnionContained(u, q) || !ContainedInUnion(q, u) {
		t.Fatal("union should be equivalent (second member equals q)")
	}
	u2 := cq.NewUnion(mustQ("q(X) :- r(X,Y), r(Y,Z)"))
	if !UnionContained(u2, q) || ContainedInUnion(q, u2) {
		t.Fatal("strictly stronger union should be contained in q, and only that way")
	}
}

func TestContainedInUnionWithComparisonsCaseSplit(t *testing.T) {
	// q: r(X), no constraint. Union: X <= 5 | X >= 5. Every linearisation
	// of X vs 5 is covered by one disjunct, but no single disjunct
	// contains q — the per-disjunct test would fail.
	q := mustQ("q(X) :- r(X)")
	u := cq.NewUnion(
		mustQ("q(X) :- r(X), X <= 5"),
		mustQ("q(X) :- r(X), X >= 5"),
	)
	if !ContainedInUnion(q, u) {
		t.Fatal("case-split union should contain the unconstrained query")
	}
	for _, m := range u.Queries {
		if Contained(q, m) {
			t.Fatal("single disjunct should not contain q")
		}
	}
	// Leaving a gap breaks containment.
	gap := cq.NewUnion(
		mustQ("q(X) :- r(X), X < 5"),
		mustQ("q(X) :- r(X), X > 5"),
	)
	if ContainedInUnion(q, gap) {
		t.Fatal("gap at X=5 ignored")
	}
}

func TestMinimizeUnion(t *testing.T) {
	u := cq.NewUnion(
		mustQ("q(X) :- r(X,Y)"),
		mustQ("q(X) :- r(X,Y), r(Y,Z)"), // subsumed by the first
		mustQ("q(X) :- s(X), s(X)"),     // member needing minimisation
	)
	m := MinimizeUnion(u)
	if m.Len() != 2 {
		t.Fatalf("MinimizeUnion kept %d members: %v", m.Len(), m)
	}
	for _, member := range m.Queries {
		if member.Name() == "q" && member.Predicates()[0] == "s" && len(member.Body) != 1 {
			t.Fatalf("member not minimised: %v", member)
		}
	}
	if !UnionContainedInUnion(u, m) || !UnionContainedInUnion(m, u) {
		t.Fatal("MinimizeUnion changed semantics")
	}
}

func TestMinimizeUnionMutualContainment(t *testing.T) {
	// Two equivalent members: exactly one must survive.
	u := cq.NewUnion(
		mustQ("q(X) :- r(X,Y)"),
		mustQ("q(A) :- r(A,B)"),
	)
	m := MinimizeUnion(u)
	if m.Len() != 1 {
		t.Fatalf("duplicate members kept: %v", m)
	}
}
