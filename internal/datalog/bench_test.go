package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Warm-path evaluation benchmarks: the query is fixed, the database is
// frozen, and the plan (for the compiled routes) is built once outside the
// loop — the serving engine's steady state.

func benchEvalRoutes(b *testing.B, db *storage.Database, q *cq.Query) {
	b.Helper()
	db.BuildIndexes()
	plan := Compile(q, cost.NewCatalog(db))
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			storage.SortTuples(plan.EvalParallelUnsortedWith(db, nil, 1))
		}
	})
	b.Run("cold_compile", func(b *testing.B) {
		b.ReportAllocs()
		cat := cost.NewRowCatalog(db)
		for i := 0; i < b.N; i++ {
			storage.SortTuples(Compile(q, cat).EvalParallelUnsortedWith(db, nil, 1))
		}
	})
}

// BenchmarkEvalChain is the canonical indexed-join workload: a length-5
// chain over distinct binary predicates with selective joins (fanout ≈ 1),
// so the inner join loop — not answer materialisation — dominates.
func BenchmarkEvalChain(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	db := workload.ChainDatabase(rng, 5, true, 2000, 2000)
	benchEvalRoutes(b, db, workload.ChainQuery(5, true))
}

// BenchmarkEvalPointLookup anchors the chain at a constant — the shape a
// parameterized point-query stream produces, all index probes.
func BenchmarkEvalPointLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(55))
	db := workload.ChainDatabase(rng, 6, true, 5000, 4000)
	q := workload.ChainQuery(6, true)
	q.Body[0].Args[0] = cq.Const("c0")
	q.Head.Args = q.Head.Args[1:]
	benchEvalRoutes(b, db, q)
}

// BenchmarkEvalComparison filters a chain early: the compiled plan checks
// X0 < X1 at depth 0 where the interpreter re-checks it per leaf binding.
func BenchmarkEvalComparison(b *testing.B) {
	rng := rand.New(rand.NewSource(56))
	db := workload.ChainDatabase(rng, 4, true, 1500, 1500)
	q := workload.ChainQuery(4, true)
	q.AddComparison(cq.NewComparison(cq.Var("X0"), cq.Lt, cq.Var("X1")))
	benchEvalRoutes(b, db, q)
}

// BenchmarkEvalNeedle is a selective chain (fanout < 1): almost all join
// paths die before the leaf and the answer set is tiny, so the measurement
// isolates the inner join loop — per-candidate allocation and binding
// cost — from answer materialisation.
func BenchmarkEvalNeedle(b *testing.B) {
	rng := rand.New(rand.NewSource(57))
	db := workload.ChainDatabase(rng, 5, true, 2000, 4000)
	benchEvalRoutes(b, db, workload.ChainQuery(5, true))
}

// BenchmarkEvalStar joins four rays around a shared centre variable.
func BenchmarkEvalStar(b *testing.B) {
	rng := rand.New(rand.NewSource(52))
	preds := []string{"p1", "p2", "p3", "p4"}
	db := workload.RandomDatabase(rng, preds, 2, 1200, 1500)
	benchEvalRoutes(b, db, workload.StarQuery(4, true))
}

// BenchmarkEvalDontCare is the projection-pushdown shape from the F7
// ablation: wide tuples whose trailing columns are don't-care.
func BenchmarkEvalDontCare(b *testing.B) {
	db, q := dontCareShape()
	benchEvalRoutes(b, db, q)
}

// dontCareShape is BenchmarkEvalDontCare's database and query: every step
// of the plan binds a column and skips another, so each deduplicates the
// bindings of its candidates.
func dontCareShape() (*storage.Database, *cq.Query) {
	rng := rand.New(rand.NewSource(53))
	db := storage.NewDatabase()
	for i := 0; i < 1500; i++ {
		db.Insert("v", storage.Tuple{
			fmt.Sprint(rng.Intn(6)), fmt.Sprint(rng.Intn(7)),
			fmt.Sprint(rng.Intn(5)), fmt.Sprint(i),
		})
	}
	return db, cq.MustParseQuery("q(X0,X3) :- v(X0,X1,F0,F1), v(F2,X1,X2,F3), v(F4,F5,X2,X3)")
}

// BenchmarkEvalDisconnected is the decomposition shape: a cross product of
// three independent components.
func BenchmarkEvalDisconnected(b *testing.B) {
	rng := rand.New(rand.NewSource(54))
	db := storage.NewDatabase()
	for i := 0; i < 600; i++ {
		db.Insert("v1", storage.Tuple{fmt.Sprint(rng.Intn(600))})
		db.Insert("v2", storage.Tuple{fmt.Sprint(rng.Intn(600))})
		db.Insert("v3", storage.Tuple{fmt.Sprint(rng.Intn(600))})
	}
	benchEvalRoutes(b, db, cq.MustParseQuery("q(X) :- v1(X), v2(A), v3(B)"))
}

// BenchmarkServeJoin is the join-heavy serving workload: three probing
// steps whose answers are deduplicated in one pooled row set.
func BenchmarkServeJoin(b *testing.B) {
	db := serveJoinDB(40000, 15000, 200000)
	db.BuildIndexes()
	plan := Compile(mustQ("q(Y,Z) :- p1(W,X), p2(X,Y), p3(Y,Z)"), cost.NewCatalog(db))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		storage.SortTuples(plan.EvalParallelUnsortedWith(db, nil, 1))
	}
}

// Fixpoint benchmarks: interpretive Program.EvalInterp vs the compiled
// semi-naive executor on recursive workloads. "warm" reuses a precompiled
// CompiledProgram (the engine's steady state); "cold" pays compilation per
// op; "warm_rel" is the serving path (EvalRelation — no result-database
// clone).

func benchProgramRoutes(b *testing.B, db *storage.Database, p *Program, answerPred string) {
	b.Helper()
	db.BuildIndexes()
	cp, err := CompileProgram(p, cost.NewCatalog(db))
	if err != nil {
		b.Fatal(err)
	}
	rowCat := cost.NewRowCatalog(db)
	b.Run("interp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.EvalInterp(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cp.Eval(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm_rel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := cp.EvalRelation(db, answerPred, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold_compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cp2, err := CompileProgram(p, rowCat)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cp2.Eval(db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// tcProgram is the linear transitive closure.
func tcProgram() *Program {
	return newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
}

// BenchmarkProgramTCChain closes a 120-node chain with random skip edges:
// many semi-naive rounds, deltas shrinking as paths lengthen.
func BenchmarkProgramTCChain(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	db := storage.NewDatabase()
	for i := 0; i < 120; i++ {
		db.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
	}
	for i := 0; i < 40; i++ {
		from := rng.Intn(120)
		db.Insert("e", storage.Tuple{fmt.Sprint(from), fmt.Sprint(from + 1 + rng.Intn(5))})
	}
	benchProgramRoutes(b, db, tcProgram(), "tc")
}

// BenchmarkProgramTCCycle closes a cyclic random graph: every node reaches
// most others, so the fixpoint is dense and dedup-heavy.
func BenchmarkProgramTCCycle(b *testing.B) {
	rng := rand.New(rand.NewSource(62))
	db := storage.NewDatabase()
	const n = 60
	for i := 0; i < n; i++ {
		db.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint((i + 1) % n)})
	}
	for i := 0; i < 2*n; i++ {
		db.Insert("e", storage.Tuple{fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n))})
	}
	benchProgramRoutes(b, db, tcProgram(), "tc")
}

// BenchmarkProgramInverseRules is the inverse-rules serving shape: a
// Skolemising program reconstructing base relations from view extents, the
// workload Program.Eval runs under the engine's InverseRules strategy.
func BenchmarkProgramInverseRules(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	db := storage.NewDatabase()
	for i := 0; i < 2000; i++ {
		a, c := fmt.Sprint(rng.Intn(800)), fmt.Sprint(rng.Intn(800))
		db.Insert("v1", storage.Tuple{a, c})
		db.Insert("v2", storage.Tuple{fmt.Sprint(rng.Intn(800)), fmt.Sprint(rng.Intn(800))})
	}
	// Inverse rules of v1(A,B) :- r(A,C), s(C,B); v2(A,B) :- r(A,B),
	// plus the query rule q(X,Y) :- r(X,Z), s(Z,Y).
	f := &Skolem{Name: "f_v1_C", Args: []string{"A", "B"}}
	v1body := []cq.Atom{cq.MustParseQuery("v(A,B) :- v1(A,B)").Body[0]}
	v2body := []cq.Atom{cq.MustParseQuery("v(A,B) :- v2(A,B)").Body[0]}
	p := newProgram(
		Rule{HeadPred: "r", Head: []HeadTerm{{Term: cq.Var("A")}, {Skolem: f}}, Body: v1body},
		Rule{HeadPred: "s", Head: []HeadTerm{{Skolem: f}, {Term: cq.Var("B")}}, Body: v1body},
		Rule{HeadPred: "r", Head: []HeadTerm{{Term: cq.Var("A")}, {Term: cq.Var("B")}}, Body: v2body},
		RuleFromQuery(mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")),
	)
	benchProgramRoutes(b, db, p, "q")
}
