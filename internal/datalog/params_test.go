package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// instantiate substitutes args for the named parameter variables of q.
func instantiate(q *cq.Query, params []string, args []string) *cq.Query {
	bind := make(cq.Subst, len(params))
	for i, p := range params {
		bind[p] = cq.Const(args[i])
	}
	return bind.ApplyQuery(q)
}

func TestCompileParamsPointLookup(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 50; i++ {
		db.Insert("r", storage.Tuple{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%7)})
		db.Insert("s", storage.Tuple{fmt.Sprintf("b%d", i%7), fmt.Sprintf("c%d", i%3)})
	}
	db.BuildIndexes()
	cat := cost.NewCatalog(db)

	// q(Y) :- r(P,Z), s(Z,Y) with P a parameter: one plan, many bindings.
	q := cq.MustParseQuery("q(Y) :- r(P,Z), s(Z,Y)")
	plan := CompileParams(q, []string{"P"}, cat)
	if len(plan.paramSlots) != 1 {
		t.Fatalf("%d parameter slots, want 1", len(plan.paramSlots))
	}
	for i := 0; i < 50; i++ {
		arg := fmt.Sprintf("a%d", i)
		got := plan.EvalParallelUnsortedWith(db, []string{arg}, 1)
		want := EvalQuery(db, instantiate(q, []string{"P"}, []string{arg}))
		if !storage.TuplesEqual(got, want) {
			t.Fatalf("arg %s: got %v want %v", arg, got, want)
		}
	}
	// The parameter feeds the root index probe, like the constant would.
	if !strings.Contains(plan.Describe(), "params -> slots") {
		t.Fatalf("Describe misses params:\n%s", plan.Describe())
	}
}

func TestCompileParamsArityMismatchPanics(t *testing.T) {
	q := cq.MustParseQuery("q(Y) :- r(P,Y)")
	plan := CompileParams(q, []string{"P"}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	plan.EvalParallelUnsortedWith(storage.NewDatabase(), nil, 1)
}

func TestCompileParamsInHeadAndComparison(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 30; i++ {
		db.Insert("r", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i % 5)})
	}
	db.BuildIndexes()
	// The parameter appears in the head and in a comparison: the emitted
	// tuple carries the bound value, and the comparison filters on it.
	q := cq.MustParseQuery("q(X,P) :- r(X,P), X < P")
	plan := CompileParams(q, []string{"P"}, cost.NewCatalog(db))
	for _, arg := range []string{"0", "1", "2", "3", "4"} {
		got := plan.EvalParallelUnsortedWith(db, []string{arg}, 1)
		want := EvalQuery(db, instantiate(q, []string{"P"}, []string{arg}))
		if !storage.TuplesEqual(got, want) {
			t.Fatalf("arg %s: got %v want %v", arg, got, want)
		}
	}
}

func TestCompileParamsDisconnectedComponents(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 20; i++ {
		db.Insert("r", storage.Tuple{fmt.Sprint(i)})
		db.Insert("s", storage.Tuple{fmt.Sprint(i % 4), fmt.Sprint(i)})
	}
	db.BuildIndexes()
	// The s component is a pure existence check gated on the parameter.
	q := cq.MustParseQuery("q(X) :- r(X), s(P,Y)")
	plan := CompileParams(q, []string{"P"}, cost.NewCatalog(db))
	if got := plan.EvalParallelUnsortedWith(db, []string{"3"}, 1); len(got) != 20 {
		t.Fatalf("existing witness: %d answers, want 20", len(got))
	}
	if got := plan.EvalParallelUnsortedWith(db, []string{"99"}, 1); len(got) != 0 {
		t.Fatalf("missing witness: %v, want none", got)
	}
}

// TestCompileParamsDifferential compiles randomized parameterized queries
// once and checks every binding against compiling the constant-instantiated
// query directly.
func TestCompileParamsDifferential(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 25
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		preds := []string{"p1", "p2", "p3"}
		db := workload.RandomDatabase(rng, preds, 2, 120+rng.Intn(200), 12)
		db.BuildIndexes()
		cat := cost.NewCatalog(db)

		// Random chain query with 1-2 parameter positions.
		n := 2 + rng.Intn(2)
		var body []cq.Atom
		for i := 0; i < n; i++ {
			body = append(body, cq.NewAtom(preds[rng.Intn(len(preds))],
				cq.Var(fmt.Sprintf("X%d", i)), cq.Var(fmt.Sprintf("X%d", i+1))))
		}
		q := cq.NewQuery(cq.NewAtom("q", cq.Var("X0"), cq.Var(fmt.Sprintf("X%d", n))), body...)
		params := []string{"X0"}
		if rng.Intn(2) == 0 {
			params = append(params, fmt.Sprintf("X%d", rng.Intn(n)+1))
		}
		// Parameter positions leave the head: they are bound, not projected.
		var head []cq.Term
		for _, a := range q.Head.Args {
			keep := true
			for _, p := range params {
				if a.IsVar() && a.Lex == p {
					keep = false
				}
			}
			if keep {
				head = append(head, a)
			}
		}
		q.Head.Args = head

		plan := CompileParams(q, params, cat)
		for rep := 0; rep < 8; rep++ {
			args := make([]string, len(params))
			for i := range args {
				args[i] = fmt.Sprintf("c%d", rng.Intn(14)) // sometimes absent
			}
			want := EvalQuery(db, instantiate(q, params, args))
			if got := plan.EvalParallelUnsortedWith(db, args, 1); !storage.TuplesEqual(got, want) {
				t.Fatalf("trial %d %s args %v: got %v want %v", trial, q, args, got, want)
			}
		}
	}
}
