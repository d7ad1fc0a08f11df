package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/containment"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Property: every rewriting found on random chain workloads expands to a
// query equivalent to the input, and respects the length bound.
func TestQuickRewritingsSoundAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(seed%4+4)%4 // 2..5
		q := workload.ChainQuery(n, true)
		views := workload.ChainViews(rng, n, true, workload.DefaultViewSpec(2*n))
		vs, err := NewViewSet(views...)
		if err != nil {
			return false
		}
		r := NewRewriter(vs)
		r.Opt.MaxResults = AllRewritings
		res, st := r.Rewrite(q)
		for _, rw := range res {
			if len(rw.Query.Body) > st.MinimizedBodyAtoms {
				return false
			}
			if !containment.Equivalent(rw.Expansion, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluating a found rewriting over materialised views returns
// exactly the direct answers (equivalent rewritings preserve semantics on
// every database).
func TestQuickRewritingEvaluationMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(seed%3+3)%3 // 2..4
		q := workload.ChainQuery(n, true)
		views := workload.ChainViews(rng, n, true, workload.DefaultViewSpec(2*n+2))
		vs, err := NewViewSet(views...)
		if err != nil {
			return false
		}
		rw := NewRewriter(vs).RewriteOne(q)
		if rw == nil {
			return true // nothing to check
		}
		base := workload.ChainDatabase(rng, n, true, 30, 6)
		viewDB, err := datalog.MaterializeViews(base, views)
		if err != nil {
			return false
		}
		direct := datalog.EvalQuery(base, q)
		viaViews := datalog.EvalQuery(viewDB, rw.Query)
		return storage.TuplesEqual(direct, viaViews)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Usable agrees with participation — if the rewriter finds a
// rewriting using view v, then v is usable.
func TestQuickUsableNecessary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(seed%3+3)%3
		q := workload.ChainQuery(n, true)
		views := workload.ChainViews(rng, n, true, workload.DefaultViewSpec(n+2))
		vs, err := NewViewSet(views...)
		if err != nil {
			return false
		}
		r := NewRewriter(vs)
		r.Opt.MaxResults = AllRewritings
		res, _ := r.Rewrite(q)
		for _, rw := range res {
			for _, a := range rw.Query.Body {
				v := vs.view(a.Pred)
				if v != nil && !Usable(v.Query, q) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: expansion is idempotent over base-only queries and inverts
// single-view bodies.
func TestQuickExpandFixpointOnBaseQueries(t *testing.T) {
	f := func(a, b, c uint8) bool {
		rng := rand.New(rand.NewSource(int64(a)<<16 | int64(b)<<8 | int64(c)))
		q := workload.RandomQuery(rng, 1+int(a)%4, 3, 0.5)
		vs, err := NewViewSet() // empty view set
		if err != nil {
			return false
		}
		exp, err := Expand(q, vs)
		if err != nil {
			return false
		}
		return exp.String() == q.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteOptionsDefaults(t *testing.T) {
	vs := MustNewViewSet(cq.MustParseQuery("v(A,B) :- r(A,B)"))
	r := NewRewriter(vs)
	q := cq.MustParseQuery("q(X,Y) :- r(X,Y)")
	res, _ := r.Rewrite(q)
	if len(res) != 1 {
		t.Fatalf("default MaxResults should yield one rewriting, got %d", len(res))
	}
}
