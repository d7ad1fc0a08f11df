package datalog

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// chainEdgeDB builds a linear chain n0 -> n1 -> ... -> n{n}.
func chainEdgeDB(n int) *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < n; i++ {
		db.Insert("e", storage.Tuple{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)})
	}
	return db
}

// crossDB builds two relations whose join enumerates n*n candidate rows —
// enough work for a mid-evaluation cancel to land inside the loop.
func crossDB(n int) *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("x%d", i)
		db.Insert("r", storage.Tuple{v})
		db.Insert("s", storage.Tuple{v})
	}
	return db
}

// evalCtx runs plan through EvalIntoCtx into a pooled set and returns the
// rows copied out, in discovery order.
func evalCtx(plan *CompiledPlan, ctx context.Context, db *storage.Database, args []string, lim Limits) ([]storage.Tuple, error) {
	into := AcquireRowSet()
	defer into.Release()
	if err := plan.EvalIntoCtx(ctx, db, args, lim, into); err != nil {
		return nil, err
	}
	return into.Rows(), nil
}

func tcClosureProgram(t *testing.T, db *storage.Database) *CompiledProgram {
	t.Helper()
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	return mustCompileProgram(t, p, db)
}

func TestEvalCtxParity(t *testing.T) {
	db := edgeDB([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	db.BuildIndexes()
	plan := Compile(mustQ("q(X,Z) :- e(X,Y), e(Y,Z)"), cost.NewCatalog(db))
	want := plan.EvalParallelUnsortedWith(db, nil, 1)
	got, err := evalCtx(plan, context.Background(), db, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("EvalIntoCtx = %v want %v", got, want)
	}
}

func TestEvalCtxPreCanceled(t *testing.T) {
	db := edgeDB([2]string{"a", "b"})
	db.BuildIndexes()
	plan := Compile(mustQ("q(X,Y) :- e(X,Y)"), cost.NewCatalog(db))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := evalCtx(plan, ctx, db, nil, Limits{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestEvalCtxCancelMidEval(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 150
	}
	db := crossDB(n)
	db.BuildIndexes()
	// Cross product: n^2 candidate rows, no index help.
	plan := Compile(mustQ("q(X,Y) :- r(X), s(Y)"), cost.NewCatalog(db))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var rows []storage.Tuple
	var err error
	go func() {
		defer close(done)
		rows, err = evalCtx(plan, ctx, db, nil, Limits{})
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation did not observe cancellation")
	}
	// Either it finished before the cancel landed (fast machine) or it must
	// report ErrCanceled; a nil error with nil rows would be a lost result.
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if err == nil && len(rows) != n*n {
		t.Fatalf("completed eval returned %d rows, want %d", len(rows), n*n)
	}
}

func TestEvalCtxRowBudget(t *testing.T) {
	db := crossDB(100)
	db.BuildIndexes()
	plan := Compile(mustQ("q(X,Y) :- r(X), s(Y)"), cost.NewCatalog(db))
	if _, err := evalCtx(plan, context.Background(), db, nil, Limits{MaxRows: 500}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	// Under the budget: full answer, no error.
	rows, err := evalCtx(plan, context.Background(), db, nil, Limits{MaxRows: 100 * 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100*100 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestFixpointCtxRoundAndDerivationBudgets(t *testing.T) {
	db := chainEdgeDB(60)
	db.BuildIndexes()
	cp := tcClosureProgram(t, db)

	_, stats, err := cp.EvalRelationCtx(context.Background(), db, "tc", Limits{MaxRounds: 5})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("MaxRounds err = %v, want ErrBudgetExceeded", err)
	}
	if stats.Iterations != 5 {
		t.Fatalf("partial stats Iterations = %d, want 5", stats.Iterations)
	}
	if stats.Derived == 0 {
		t.Fatal("partial stats should report derived tuples")
	}

	_, stats, err = cp.EvalRelationCtx(context.Background(), db, "tc", Limits{MaxDerived: 100})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("MaxDerived err = %v, want ErrBudgetExceeded", err)
	}
	if stats.Derived <= 100 {
		t.Fatalf("budget should trip only past the cap; Derived = %d", stats.Derived)
	}

	// Generous limits: identical to the unbounded run.
	want, _, err := cp.EvalRelation(db, "tc", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cp.EvalRelationCtx(context.Background(), db, "tc", Limits{MaxRounds: 1000, MaxDerived: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got, want) {
		t.Fatal("budgeted run diverged from unbounded run")
	}
}

func TestFixpointCtxCancelMidRun(t *testing.T) {
	n := 900
	if testing.Short() {
		n = 300
	}
	db := chainEdgeDB(n)
	db.BuildIndexes()
	cp := tcClosureProgram(t, db)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, stats, err := cp.EvalRelationCtx(ctx, db, "tc", Limits{})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("machine finished the fixpoint before the deadline")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.Iterations == 0 && stats.Derived == 0 {
		t.Fatal("canceled run should carry partial stats")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestFixpointCtxPreCanceled(t *testing.T) {
	db := chainEdgeDB(400)
	db.BuildIndexes()
	cp := tcClosureProgram(t, db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cp.EvalRelationCtx(ctx, db, "tc", Limits{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Budget path.
	_, stats, err := cp.EvalRelationCtx(context.Background(), db, "tc", Limits{MaxRounds: 3})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if stats.Iterations != 3 {
		t.Fatalf("Iterations = %d, want 3", stats.Iterations)
	}
}

// TestFixpointCtxStrataBarriers checks that rounds are counted across strata
// and that the budgets and cancellation are enforced at the barrier between
// two strata. The program has three: a(1 round), tc over a (the 4-edge
// chain closes in 5 rounds: the full round, three deriving delta rounds and
// one that derives nothing), top over tc (1 round).
func TestFixpointCtxStrataBarriers(t *testing.T) {
	db := chainEdgeDB(4)
	db.Insert("u", storage.Tuple{"n4"})
	p := newProgram(
		RuleFromQuery(mustQ("top(X) :- tc(X,Y), u(Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), a(Y,Z)")),
		RuleFromQuery(mustQ("tc(X,Y) :- a(X,Y)")),
		RuleFromQuery(mustQ("a(X,Y) :- e(X,Y)")),
	)
	cp := mustCompileProgram(t, p, db)
	_, stats, err := cp.EvalRelationCtx(context.Background(), db, "top", Limits{})
	if err != nil || stats.Iterations != 7 || stats.Derived != 4+10+4 {
		t.Fatalf("unbounded run: stats %+v, err %v; want 7 rounds deriving 18", stats, err)
	}
	// MaxRounds: k trips at the barrier before round k+1 — here the
	// barriers that open the second and the third stratum.
	for _, c := range []struct{ rounds, derived int }{{1, 4}, {6, 14}} {
		_, stats, err := cp.EvalRelationCtx(context.Background(), db, "top", Limits{MaxRounds: c.rounds})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("MaxRounds %d: err = %v, want ErrBudgetExceeded", c.rounds, err)
		}
		if stats.Iterations != c.rounds || stats.Derived != c.derived {
			t.Fatalf("MaxRounds %d: partial stats %+v, want %d rounds deriving %d", c.rounds, stats, c.rounds, c.derived)
		}
	}

	// A cancel landing inside a slow first stratum stops its round at the
	// next guard poll; the barrier that would open the second stratum
	// reports it, so exactly one round ran.
	n := 1000
	if testing.Short() {
		n = 500
	}
	slow := crossDB(n)
	q := mustQ("same(X) :- r(X), s(Y)")
	q.AddComparison(cq.NewComparison(cq.Var("X"), cq.Eq, cq.Var("Y")))
	cp = mustCompileProgram(t, newProgram(RuleFromQuery(q), RuleFromQuery(mustQ("out(X) :- same(X), r(X)"))), slow)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, stats, err = cp.EvalRelationCtx(ctx, slow, "out", Limits{})
	if err == nil {
		t.Skip("machine finished the first stratum before the deadline")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.Iterations != 1 {
		t.Fatalf("canceled run: %d rounds, want 1 (stopped at the stratum barrier)", stats.Iterations)
	}
}

func TestMaintainCtxBudgetsAndCancel(t *testing.T) {
	db := chainEdgeDB(80)
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	cp, err := CompileProgramIVM(p, cost.NewRowCatalog(db))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := cp.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	mat.BuildIndexes()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cp.ApplyUpdatesCtx(ctx, mat, map[string][]storage.Tuple{"e": {{"n80", "n81"}}}, nil, Limits{}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	// A new edge closing the chain into place derives ~n tuples per round;
	// a tiny round budget trips mid-propagation, and the batch — the base
	// insert included — is rolled back.
	before := mat.TotalTuples()
	_, err = cp.ApplyUpdatesCtx(context.Background(), mat,
		map[string][]storage.Tuple{"e": {{"n81", "n0"}}}, nil, Limits{MaxRounds: 2})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if after := mat.TotalTuples(); after != before {
		t.Fatalf("budget-tripped batch left %d tuple(s) behind", after-before)
	}
}

// TestEvalCtxZeroLimitsIsUnguarded pins the context-free entry points to the
// guard-free path: a plan evaluated through EvalParallelUnsortedWith must not
// allocate guard state (observable as identical results and no errors —
// the nil-guard fast path is exercised by every other test in the package).
func TestEvalCtxZeroLimitsIsUnguarded(t *testing.T) {
	if gs := newGuardState(context.Background(), 0); gs != nil {
		t.Fatal("background context + zero limits should produce a nil guard")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if gs := newGuardState(ctx, 0); gs == nil {
		t.Fatal("cancelable context should produce a live guard")
	}
	if gs := newGuardState(context.Background(), 10); gs == nil {
		t.Fatal("row budget should produce a live guard")
	}
}
