package inverserules

import (
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

func mustQ(src string) *cq.Query { return cq.MustParseQuery(src) }

func TestInvertBasic(t *testing.T) {
	v := mustQ("v(A,B) :- r(A,C), s(C,B)")
	rules, err := Invert(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
	s0 := rules[0].String()
	if !strings.HasPrefix(s0, "r(A,f_v_C(A,B)) :- v(A,B).") {
		t.Fatalf("rule 0 = %q", s0)
	}
	s1 := rules[1].String()
	if !strings.HasPrefix(s1, "s(f_v_C(A,B),B) :- v(A,B).") {
		t.Fatalf("rule 1 = %q", s1)
	}
}

func TestInvertSharedSkolem(t *testing.T) {
	// The same existential variable must use the same Skolem function in
	// every rule, so reconstructed tuples re-join.
	v := mustQ("v(A) :- r(A,C), s(C)")
	rules, err := Invert(v)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := rules[0].String(), rules[1].String()
	if !strings.Contains(r0, "f_v_C(A)") || !strings.Contains(r1, "f_v_C(A)") {
		t.Fatalf("skolems differ: %q vs %q", r0, r1)
	}
}

func TestInvertConstants(t *testing.T) {
	v := mustQ("v(A) :- r(A,5)")
	rules, err := Invert(v)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].String() != "r(A,5) :- v(A)." {
		t.Fatalf("rule = %q", rules[0].String())
	}
}

func TestInvertRejectsComparisons(t *testing.T) {
	if _, err := Invert(mustQ("v(A) :- r(A), A > 3")); err == nil {
		t.Fatal("view with comparisons accepted")
	}
}

func TestInvertRejectsInvalid(t *testing.T) {
	if _, err := Invert(&cq.Query{Head: cq.NewAtom("v", cq.Var("A"))}); err == nil {
		t.Fatal("invalid view accepted")
	}
}

func TestAnswerJoinThroughSkolem(t *testing.T) {
	// v(A,B) :- r(A,C), s(C,B). The C value is lost, but the Skolem
	// reconstruction lets q re-join r and s *within* one view tuple.
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("s", storage.Tuple{"m", "x"})
	views := []*cq.Query{mustQ("v(A,B) :- r(A,C), s(C,B)")}
	viewDB, err := datalog.MaterializeViews(base, views)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	got, err := Answer(q, views, viewDB)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got, []storage.Tuple{{"a", "x"}}) {
		t.Fatalf("answers = %v", got)
	}
}

func TestAnswerFiltersSkolems(t *testing.T) {
	// q asks for the hidden join value: only Skolem tuples would answer,
	// so the certain answer set is empty.
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	views := []*cq.Query{mustQ("v(A) :- r(A,C)")}
	viewDB, _ := datalog.MaterializeViews(base, views)
	q := mustQ("q(Y) :- r(X,Y)")
	got, err := Answer(q, views, viewDB)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("answers = %v", got)
	}
	// But asking for the visible column works.
	q2 := mustQ("q(X) :- r(X,Y)")
	got2, _ := Answer(q2, views, viewDB)
	if !storage.TuplesEqual(got2, []storage.Tuple{{"a"}}) {
		t.Fatalf("answers = %v", got2)
	}
}

func TestAnswerMultipleViews(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("s", storage.Tuple{"m", "x"})
	views := []*cq.Query{
		mustQ("v1(A,B) :- r(A,B)"),
		mustQ("v2(A,B) :- s(A,B)"),
	}
	viewDB, _ := datalog.MaterializeViews(base, views)
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	got, err := Answer(q, views, viewDB)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got, []storage.Tuple{{"a", "x"}}) {
		t.Fatalf("answers = %v", got)
	}
}

func TestAnswerNoSpuriousJoins(t *testing.T) {
	// Two view tuples with the same hidden variable pattern must not
	// cross-join: skolem(a) != skolem(b).
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("s", storage.Tuple{"n", "x"}) // m != n: no join
	views := []*cq.Query{mustQ("v(A,B) :- r(A,C), s(C,B)")}
	viewDB, _ := datalog.MaterializeViews(base, views)
	if viewDB.Relation("v").Len() != 0 {
		t.Fatal("view extent should be empty")
	}
	// Seed the extent manually as if the source had matching tuples for
	// two different hidden values.
	viewDB.Insert("v", storage.Tuple{"a", "x"})
	viewDB.Insert("v", storage.Tuple{"b", "y"})
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	got, err := Answer(q, views, viewDB)
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.Tuple{{"a", "x"}, {"b", "y"}}
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("answers = %v want %v (no cross joins)", got, want)
	}
}

func TestProgramIncludesQueryRule(t *testing.T) {
	p, err := Program(mustQ("q(X) :- r(X,Y)"), []*cq.Query{mustQ("v(A,B) :- r(A,B)")})
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "q(X) :- r(X,Y).") || !strings.Contains(s, "r(A,B) :- v(A,B).") {
		t.Fatalf("program:\n%s", s)
	}
}

func TestProgramInvalidInputs(t *testing.T) {
	if _, err := Program(&cq.Query{Head: cq.NewAtom("q", cq.Var("X"))}, nil); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := Program(mustQ("q(X) :- r(X)"), []*cq.Query{mustQ("v(A) :- r(A), A > 1")}); err == nil {
		t.Fatal("view with comparisons accepted")
	}
}

func TestAnswerEmptyViewDB(t *testing.T) {
	got, err := Answer(mustQ("q(X) :- r(X)"), []*cq.Query{mustQ("v(A) :- r(A)")}, storage.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("answers = %v", got)
	}
}

// TestInverseExecJoinOrder pins the join order of the maintenance plans of
// an inverse-rules program whose query subgoals tie on every statistic (the
// derived predicates have none): the variant rooted at s(V2,V1) must join r
// through the bound V2 before it probes grp by its constant, not enumerate
// grp(_,g0) × r. The body order is the engine's canonical one.
func TestInverseExecJoinOrder(t *testing.T) {
	views := []*cq.Query{
		mustQ("v1(X,Y) :- r(X,Z), s(Z,Y), a(Z)"),
		mustQ("v2(X,Z) :- r(X,Z), b(Z)"),
		mustQ("v3(Z,Y) :- s(Z,Y), b(Z)"),
		mustQ("v4(X,G) :- grp(X,G)"),
	}
	p, err := Program(mustQ("q(V0,V1) :- grp(V0,g0), r(V0,V2), s(V2,V1)"), views)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := datalog.CompileProgramIVM(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := `  Δs@2 (cross-stratum)
    1. s  delta
    2. r  index(col=1 <- slot 0)
    3. grp  index(col=0 <- slot 2)  existential
`
	if d := cp.Describe(); !strings.Contains(d, want) {
		t.Fatalf("Δs variant of the query rule is not\n%s\nprogram:\n%s", want, d)
	}
}
