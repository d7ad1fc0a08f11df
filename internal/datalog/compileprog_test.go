package datalog

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

func mustCompileProgram(t *testing.T, p *Program, db *storage.Database) *CompiledProgram {
	t.Helper()
	cp, err := CompileProgram(p, cost.NewRowCatalog(db))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestCompiledProgramTransitiveClosure(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp := mustCompileProgram(t, p, db)
	out, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want := []storage.Tuple{
		{"a", "b"}, {"a", "c"}, {"a", "d"},
		{"b", "c"}, {"b", "d"},
		{"c", "d"},
	}
	if got := out.Relation("tc").Tuples(); !storage.TuplesEqual(got, want) {
		t.Fatalf("tc = %v want %v", got, want)
	}
	if db.Relation("tc") != nil {
		t.Fatal("Eval mutated the input database")
	}
}

func TestCompiledProgramStats(t *testing.T) {
	// Chain a->b->c->d: the linear rule needs one round per extra hop, so
	// the loop runs round 0 plus delta rounds until a round derives nothing.
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp := mustCompileProgram(t, p, db)
	tuples, stats, err := cp.EvalRelation(db, "tc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 6 {
		t.Fatalf("tc tuples = %v", tuples)
	}
	if stats.Derived != 6 {
		t.Fatalf("Derived = %d, want 6", stats.Derived)
	}
	// Round 0 derives the edges, round 1 the 2-hop pairs, round 2 the 3-hop
	// pair, round 3 derives nothing new but still runs (it consumes the
	// round-2 delta).
	if stats.Iterations != 4 {
		t.Fatalf("Iterations = %d, want 4", stats.Iterations)
	}
}

func TestCompiledProgramMutualRecursion(t *testing.T) {
	// even/odd distance reachability over a chain: mutually recursive IDB
	// predicates exercise cross-rule deltas.
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"}, [2]string{"d", "a"})
	p := newProgram(
		RuleFromQuery(mustQ("odd(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("even(X,Z) :- odd(X,Y), e(Y,Z)")),
		RuleFromQuery(mustQ("odd(X,Z) :- even(X,Y), e(Y,Z)")),
	)
	cp := mustCompileProgram(t, p, db)
	got, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.EvalInterp(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"odd", "even"} {
		if !storage.TuplesEqual(got.Relation(pred).Tuples(), want.Relation(pred).Tuples()) {
			t.Fatalf("%s: compiled %v want %v", pred, got.Relation(pred).Tuples(), want.Relation(pred).Tuples())
		}
	}
}

func TestCompiledProgramSkolemHeads(t *testing.T) {
	// Inverse-rule shape: two rules emit the same Skolem function so the
	// compiled emitter must produce joinable values identical to the
	// interpreter's.
	db := storage.NewDatabase()
	db.Insert("v", storage.Tuple{"a"})
	db.Insert("v", storage.Tuple{"b"})
	rules := []Rule{
		{
			HeadPred: "r",
			Head: []HeadTerm{
				{Term: cq.Var("X")},
				{Skolem: &Skolem{Name: "f0", Args: []string{"X"}}},
			},
			Body: []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
		},
		{
			HeadPred: "s",
			Head: []HeadTerm{
				{Skolem: &Skolem{Name: "f0", Args: []string{"X"}}},
			},
			Body: []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
		},
		RuleFromQuery(mustQ("joined(X) :- r(X,W), s(W)")),
	}
	p := newProgram(rules...)
	cp := mustCompileProgram(t, p, db)
	out, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("joined").Len() != 2 {
		t.Fatalf("joined = %v", out.Relation("joined").Tuples())
	}
	want, err := p.EvalInterp(db)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(out.Relation("r").Tuples(), want.Relation("r").Tuples()) {
		t.Fatalf("skolem values diverge: compiled %v interp %v",
			out.Relation("r").Tuples(), want.Relation("r").Tuples())
	}
}

func TestCompiledProgramHeadConstantAndComparison(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("n", storage.Tuple{"1"})
	db.Insert("n", storage.Tuple{"5"})
	p := newProgram(RuleFromQuery(mustQ("big(X,tag) :- n(X), X > 3")))
	cp := mustCompileProgram(t, p, db)
	out, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(out.Relation("big").Tuples(), []storage.Tuple{{"5", "tag"}}) {
		t.Fatalf("big = %v", out.Relation("big").Tuples())
	}
}

func TestCompiledProgramGroundFalseComparison(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("n", storage.Tuple{"1"})
	q := mustQ("p(X) :- n(X)")
	q.AddComparison(cq.NewComparison(cq.IntConst(1), cq.Gt, cq.IntConst(2)))
	p := newProgram(RuleFromQuery(q))
	cp := mustCompileProgram(t, p, db)
	out, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("p") != nil && out.Relation("p").Len() != 0 {
		t.Fatalf("p = %v, want empty", out.Relation("p").Tuples())
	}
}

func TestCompiledProgramUnsafeComparisonVarDerivesNothing(t *testing.T) {
	// A comparison variable in no body atom: the interpreter filters every
	// binding silently; the compiled variant is marked empty.
	db := storage.NewDatabase()
	db.Insert("n", storage.Tuple{"1"})
	q := mustQ("p(X) :- n(X)")
	q.AddComparison(cq.NewComparison(cq.Var("Zfree"), cq.Lt, cq.IntConst(9)))
	p := newProgram(RuleFromQuery(q))
	cp := mustCompileProgram(t, p, db)
	out, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("p") != nil && out.Relation("p").Len() != 0 {
		t.Fatalf("p = %v, want empty", out.Relation("p").Tuples())
	}
	interp, err := p.EvalInterp(db)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Relation("p").Len() != 0 {
		t.Fatalf("interp disagrees: %v", interp.Relation("p").Tuples())
	}
}

func TestCompiledProgramUnboundHeadVarErrors(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("v", storage.Tuple{"a"})
	rule := Rule{
		HeadPred: "bad",
		Head:     []HeadTerm{{Term: cq.Var("Z")}},
		Body:     []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
	}
	cp := mustCompileProgram(t, newProgram(rule), db)
	if _, err := cp.Eval(db); err == nil {
		t.Fatal("unsafe rule evaluated without error")
	}
	// No body match → no error, matching the interpreter's lazy check.
	empty := storage.NewDatabase()
	if _, err := cp.Eval(empty); err != nil {
		t.Fatalf("unsafe rule with empty body relation errored: %v", err)
	}
}

func TestCompiledProgramUnboundSkolemArgErrors(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("v", storage.Tuple{"a"})
	rule := Rule{
		HeadPred: "bad",
		Head:     []HeadTerm{{Skolem: &Skolem{Name: "f", Args: []string{"Missing"}}}},
		Body:     []cq.Atom{cq.NewAtom("v", cq.Var("X"))},
	}
	cp := mustCompileProgram(t, newProgram(rule), db)
	if _, err := cp.Eval(db); err == nil {
		t.Fatal("unbound Skolem argument evaluated without error")
	}
}

func TestCompileProgramArityConflict(t *testing.T) {
	p := newProgram(
		RuleFromQuery(mustQ("p(X) :- e(X,Y)")),
		RuleFromQuery(mustQ("p(X,Y) :- e(X,Y)")),
	)
	if _, err := CompileProgram(p, nil); err == nil {
		t.Fatal("arity conflict compiled without error")
	}
}

func TestCompiledProgramEDBSeedsIDBRelation(t *testing.T) {
	// The derived predicate also exists in the EDB: its facts seed the
	// fixpoint and survive into the result, as with the interpreter.
	db := edgeDB([2]string{"a", "b"})
	db.Insert("tc", storage.Tuple{"x", "y"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp := mustCompileProgram(t, p, db)
	got, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.EvalInterp(db)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got.Relation("tc").Tuples(), want.Relation("tc").Tuples()) {
		t.Fatalf("tc = %v want %v", got.Relation("tc").Tuples(), want.Relation("tc").Tuples())
	}
	// Arity clash between EDB relation and rule head is an evaluation error.
	bad := storage.NewDatabase()
	bad.Insert("tc", storage.Tuple{"only-one-column"})
	if _, err := cp.Eval(bad); err == nil {
		t.Fatal("arity clash with EDB relation evaluated without error")
	}
}

func TestCompiledProgramEvalRelation(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp := mustCompileProgram(t, p, db)
	tuples, _, err := cp.EvalRelation(db, "tc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(tuples, []storage.Tuple{{"a", "b"}, {"b", "c"}, {"a", "c"}}) {
		t.Fatalf("tc = %v", tuples)
	}
	// EDB predicate: returns a copy of the base tuples.
	edges, _, err := cp.EvalRelation(db, "e", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("e = %v", edges)
	}
	// Unknown predicate: nil.
	if none, _, _ := cp.EvalRelation(db, "nope", 1); none != nil {
		t.Fatalf("nope = %v", none)
	}
}

func TestCompiledProgramDescribe(t *testing.T) {
	db := edgeDB([2]string{"a", "b"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp := mustCompileProgram(t, p, db)
	d := cp.Describe()
	for _, want := range []string{"rule 0 (stratum 0)", "full", "Δtc@0", "delta"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}

// TestCompiledProgramRoundsPerStratum pins the stratified evaluation: a
// non-recursive stratum is one round of full plans, and a plain program
// compiles no delta variant rooted at a lower stratum (its relation is
// final before the stratum that reads it starts).
func TestCompiledProgramRoundsPerStratum(t *testing.T) {
	f := &Skolem{Name: "f", Args: []string{"X", "Y"}}
	cases := []struct {
		name   string
		rules  []Rule
		answer string
		rounds int
	}{
		{
			// The inverse-rules shape: Skolem-headed inverse rules over the
			// view relations, then the query rule over their heads.
			name: "inverse rules",
			rules: []Rule{
				{HeadPred: "r", Head: []HeadTerm{{Term: cq.Var("X")}, {Skolem: f}}, Body: []cq.Atom{cq.NewAtom("v1", cq.Var("X"), cq.Var("Y"))}},
				{HeadPred: "s", Head: []HeadTerm{{Skolem: f}, {Term: cq.Var("Y")}}, Body: []cq.Atom{cq.NewAtom("v1", cq.Var("X"), cq.Var("Y"))}},
				RuleFromQuery(mustQ("r(X,Z) :- v2(X,Z)")),
				RuleFromQuery(mustQ("s(Z,Y) :- v3(Z,Y)")),
				RuleFromQuery(mustQ("grp(X,G) :- v4(X,G)")),
				RuleFromQuery(mustQ("q(X,Y) :- grp(X,g0), r(X,Z), s(Z,Y)")),
			},
			answer: "q",
			rounds: 2,
		},
		{
			name: "three-level chain",
			rules: []Rule{
				RuleFromQuery(mustQ("c(X) :- b(X,Y), v1(Y,Z)")),
				RuleFromQuery(mustQ("b(X,Y) :- a(X,Y)")),
				RuleFromQuery(mustQ("a(X,Y) :- v2(X,Y)")),
			},
			answer: "c",
			rounds: 3,
		},
	}
	db := storage.NewDatabase()
	for i := 0; i < 6; i++ {
		x, z := fmt.Sprintf("x%d", i), fmt.Sprintf("z%d", i%3)
		db.Insert("v1", storage.Tuple{z, fmt.Sprintf("y%d", i)})
		db.Insert("v2", storage.Tuple{x, z})
		db.Insert("v3", storage.Tuple{z, x})
		db.Insert("v4", storage.Tuple{x, fmt.Sprintf("g%d", i%2)})
	}
	for _, c := range cases {
		p := newProgram(c.rules...)
		cp := mustCompileProgram(t, p, db)
		if d := cp.Describe(); strings.Contains(d, "Δ") {
			t.Errorf("%s: non-recursive program compiled delta variants:\n%s", c.name, d)
		}
		got, stats, err := cp.EvalRelation(db, c.answer, 1)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Iterations != c.rounds {
			t.Errorf("%s: %d rounds, want %d", c.name, stats.Iterations, c.rounds)
		}
		want, err := p.EvalInterp(db)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !storage.TuplesEqual(got, want.Relation(c.answer).Tuples()) {
			t.Errorf("%s: %s = %v want %v", c.name, c.answer, got, want.Relation(c.answer).Tuples())
		}
	}
}

func TestProgramEvalDoesNotMutateInput(t *testing.T) {
	// Program.Eval freezes only its private clone: the input database gains
	// neither relations nor column indexes, so concurrent Eval calls over
	// one shared unfrozen database stay safe (as with EvalInterp).
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	if _, err := p.Eval(db); err != nil {
		t.Fatal(err)
	}
	if db.Relation("tc") != nil {
		t.Fatal("Eval added a relation to the input database")
	}
	for col := 0; col < 2; col++ {
		if _, ok := db.Relation("e").ColumnIndex(col); ok {
			t.Fatalf("Eval built an index on input column %d", col)
		}
	}
}

func TestProgramEvalMatchesInterpOnCycle(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "a"})
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), tc(Y,Z)")),
	)
	got, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.EvalInterp(db)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got.Relation("tc").Tuples(), want.Relation("tc").Tuples()) {
		t.Fatalf("tc = %v want %v", got.Relation("tc").Tuples(), want.Relation("tc").Tuples())
	}
}
