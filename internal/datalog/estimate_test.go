package datalog

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// estimateDB holds big (100 rows: 100 distinct values in column 0, 10 in
// column 1) and small (5 rows).
func estimateDB() *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < 100; i++ {
		db.Insert("big", storage.Tuple{fmt.Sprint("a", i), fmt.Sprint("b", i%10)})
	}
	for i := 0; i < 5; i++ {
		db.Insert("small", storage.Tuple{fmt.Sprint("a", i)})
	}
	return db
}

// TestEstimateQueryPrefersSelectiveDriver: the plan starts with the smaller
// relation, and the estimate prices that order: small (5), then big with
// X bound (100 rows / 100 distinct X), 5 + 5 rather than 100 + 100.
func TestEstimateQueryPrefersSelectiveDriver(t *testing.T) {
	cat := cost.NewCatalog(estimateDB())
	q := mustQ("q(X) :- big(X,Y), small(X)")
	if p := Compile(q, cat); p.components[0].steps[0].pred != "small" {
		t.Fatalf("compiled order:\n%s want small first", p.Describe())
	}
	if e := Estimate(q, nil, cat); e.Cost != 10 || e.Cardinality != 5 {
		t.Fatalf("estimate %+v, want cost 10 and cardinality 5", e)
	}
}

func TestEstimateConstantsFilter(t *testing.T) {
	cat := cost.NewCatalog(estimateDB())
	all := Estimate(mustQ("q(X,Y) :- big(X,Y)"), nil, cat)
	filtered := Estimate(mustQ("q(X) :- big(X,b3)"), nil, cat)
	if filtered.Cardinality >= all.Cardinality {
		t.Fatalf("constant filter did not reduce cardinality: %v vs %v", filtered.Cardinality, all.Cardinality)
	}
}

func TestEstimateComparisonsReduce(t *testing.T) {
	cat := cost.NewCatalog(estimateDB())
	plain := Estimate(mustQ("q(X,Y) :- big(X,Y)"), nil, cat)
	comp := Estimate(mustQ("q(X,Y) :- big(X,Y), X < Y"), nil, cat)
	if comp.Cardinality != plain.Cardinality/3 {
		t.Fatalf("comparison cardinality %v, want a third of %v", comp.Cardinality, plain.Cardinality)
	}
}

// TestEstimateQueryWithBoundParams: a bound parameter filters like the
// equivalent constant selection.
func TestEstimateQueryWithBoundParams(t *testing.T) {
	cat := cost.NewCatalog(estimateDB())
	q := mustQ("q(X) :- big(X,P)")
	free := Estimate(q, nil, cat)
	bound := Estimate(q, []string{"P"}, cat)
	if bound.Cardinality >= free.Cardinality || bound.Cost >= free.Cost {
		t.Fatalf("pre-bound parameter did not filter: bound=%+v free=%+v", bound, free)
	}
	if asConst := Estimate(mustQ("q(X) :- big(X,b3)"), nil, cat); bound != asConst {
		t.Fatalf("bound param %+v != constant %+v", bound, asConst)
	}
}

// TestEstimateQueryWithBoundDrivesJoinOrder: with P bound, big has a bound
// column and drives despite being the larger relation: 1 + 5, not 5 + 5.
func TestEstimateQueryWithBoundDrivesJoinOrder(t *testing.T) {
	cat := cost.NewCatalog(estimateDB())
	if e := Estimate(mustQ("q(Y) :- big(P,Y), small(Z)"), []string{"P"}, cat); e.Cost != 6 {
		t.Fatalf("estimate %+v, want cost 6 (the parameter-bound atom first)", e)
	}
}

// TestChoosePrefersMaterializedJoin: a pre-joined view much smaller than
// the join of its base relations wins.
func TestChoosePrefersMaterializedJoin(t *testing.T) {
	cat := cost.NewCatalog(storage.NewDatabase())
	cat.SetRelation("r", 10000, []float64{1000, 500})
	cat.SetRelation("s", 10000, []float64{500, 1000})
	cat.SetRelation("v_joined", 800, []float64{600, 600})
	direct := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	viaView := mustQ("q(X,Y) :- v_joined(X,Y)")
	if best, ests := Choose([]*cq.Query{direct, viaView}, nil, cat); best != 1 {
		t.Fatalf("Choose picked %d (estimates %+v)", best, ests)
	}
}

// TestChooseWithBoundParams: v_wide is cheaper scanned cold, but with
// the parameter bound the highly selective v_sel wins.
func TestChooseWithBoundParams(t *testing.T) {
	cat := cost.NewCatalog(storage.NewDatabase())
	cat.SetRelation("v_wide", 1000, []float64{2, 2})
	cat.SetRelation("v_sel", 2000, []float64{2000, 2000})
	candidates := []*cq.Query{mustQ("q(X) :- v_wide(X,P)"), mustQ("q(X) :- v_sel(X,P)")}
	cold, _ := Choose(candidates, nil, cat)
	warm, ests := Choose(candidates, []string{"P"}, cat)
	if cold != 0 || warm != 1 {
		t.Fatalf("cold=%d warm=%d (estimates %+v), want 0 then 1", cold, warm, ests)
	}
}

func TestChooseEmpty(t *testing.T) {
	if best, ests := Choose(nil, nil, nil); best != -1 || len(ests) != 0 {
		t.Fatalf("Choose on empty = %d, %v", best, ests)
	}
}

// TestEstimatePricesCompiledOrder is the property that Estimate prices the
// plan CompileParams emits: over 400 seeded connected queries on three
// relations of 1 000, 100 and 300 rows with skewed domains, half of them
// with a bound parameter, Estimate equals the estimate recomputed step by
// step from the compiled plan's own steps and column ops.
func TestEstimatePricesCompiledOrder(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 1000; i++ {
		db.Insert("r", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i % 7)})
	}
	for i := 0; i < 100; i++ {
		db.Insert("s", storage.Tuple{fmt.Sprint(i % 2), fmt.Sprint(i)})
	}
	for i := 0; i < 300; i++ {
		db.Insert("u", storage.Tuple{fmt.Sprint(i % 30), fmt.Sprint(i * i % 300)})
	}
	cat := cost.NewCatalog(db)
	rng := rand.New(rand.NewSource(17))
	preds := []string{"r", "s", "u"}
	for trial := 0; trial < 400; trial++ {
		// Every atom after the first joins an earlier variable, so the
		// body is connected.
		vars := []cq.Term{cq.Var("V0")}
		fresh := func() cq.Term {
			v := cq.Var(fmt.Sprint("V", len(vars)))
			vars = append(vars, v)
			return v
		}
		q := &cq.Query{}
		for i, n := 0, 2+rng.Intn(4); i < n; i++ {
			args := []cq.Term{vars[rng.Intn(len(vars))], {}}
			switch rng.Intn(5) {
			case 0:
				args[1] = cq.Const(fmt.Sprint(rng.Intn(7)))
			case 1:
				args[1] = vars[rng.Intn(len(vars))]
			default:
				args[1] = fresh()
			}
			if rng.Intn(2) == 0 {
				args[0], args[1] = args[1], args[0]
			}
			q.Body = append(q.Body, cq.NewAtom(preds[rng.Intn(len(preds))], args...))
		}
		q.Head = cq.NewAtom("q", vars[rng.Intn(len(vars))])
		var params []string
		if trial%2 == 1 {
			params = []string{vars[0].Lex}
		}
		if k := len(splitComponents(q, &compileScratch{})); k != 1 {
			t.Fatalf("trial %d: %s has %d components", trial, q, k)
		}
		p := CompileParams(q, params, cat)
		if got, want := Estimate(q, params, cat), stepEstimate(p, cat); got != want {
			t.Errorf("trial %d: %s params %v: Estimate %+v, compiled steps %+v\n%s", trial, q, params, got, want, p.Describe())
		}
	}
}

// stepEstimate recomputes a plan's estimate from its compiled steps: a
// step yields its relation's rows divided by the distinct count of every
// column it checks against a constant or against a slot bound before it
// (by a parameter or an earlier step), floored at one tuple of the
// relation.
func stepEstimate(p *CompiledPlan, cat *cost.Catalog) cost.Estimate {
	bound := make(map[int]bool)
	for _, s := range p.paramSlots {
		bound[s] = true
	}
	est := cost.Estimate{Cardinality: 1}
	for _, c := range p.components {
		for _, s := range c.steps {
			// Divide in column order, as the compiler does, so the
			// floating-point result is the same bit for bit.
			ops := slices.SortedFunc(slices.Values(s.ops), func(a, b colOp) int { return a.col - b.col })
			rows := cat.Rows(s.pred)
			for _, op := range ops {
				if op.action == colCheckConst || op.action == colCheckSlot && bound[op.slot] {
					rows /= cat.Distinct(s.pred, op.col)
				}
			}
			for _, op := range ops {
				if op.action == colBind {
					bound[op.slot] = true
				}
			}
			est.Cardinality *= math.Max(rows, 1/math.Max(1, cat.Rows(s.pred)))
			est.Cost += est.Cardinality
		}
	}
	return est
}
