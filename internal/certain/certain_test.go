package certain

import (
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
	"repro/internal/workload"
)

func mustQ(src string) *cq.Query { return cq.MustParseQuery(src) }

func TestCompareExactRecovery(t *testing.T) {
	// Views preserve all information needed by the query: certain answers
	// equal direct answers.
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("r", storage.Tuple{"b", "n"})
	base.Insert("s", storage.Tuple{"m", "x"})
	base.Insert("s", storage.Tuple{"n", "y"})
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	views := []*cq.Query{mustQ("v1(A,B) :- r(A,B)"), mustQ("v2(A,B) :- s(A,B)")}
	rep, err := Compare(q, views, base)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MethodsAgree {
		t.Fatalf("methods disagree: %+v", rep)
	}
	if !rep.SoundMC || !rep.SoundIR {
		t.Fatalf("unsound: %+v", rep)
	}
	if !rep.ExactRecovery || rep.Direct != 2 {
		t.Fatalf("expected exact recovery: %+v", rep)
	}
}

func TestCompareLossyViews(t *testing.T) {
	// The view hides the join column: certain answers are empty even
	// though direct answers exist.
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("s", storage.Tuple{"m", "x"})
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	views := []*cq.Query{mustQ("v1(A) :- r(A,B)"), mustQ("v2(B) :- s(A,B)")}
	rep, err := Compare(q, views, base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Direct != 1 || rep.CertainMC != 0 || rep.CertainIR != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.MethodsAgree || !rep.SoundMC || !rep.SoundIR || rep.ExactRecovery {
		t.Fatalf("report = %+v", rep)
	}
}

func TestComparePackedView(t *testing.T) {
	// One view packs the full join: inverse rules recover answers through
	// Skolem joins and MiniCon uses the single-view rewriting.
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("s", storage.Tuple{"m", "x"})
	base.Insert("s", storage.Tuple{"n", "dead"})
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	views := []*cq.Query{mustQ("v(A,B) :- r(A,C), s(C,B)")}
	rep, err := Compare(q, views, base)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CertainMC != 1 || rep.CertainIR != 1 || !rep.MethodsAgree || !rep.ExactRecovery {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCompareRandomWorkloads(t *testing.T) {
	// Property-style: on random chain workloads, both methods agree and
	// are sound.
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(seed)%3
		q := workload.ChainQuery(n, true)
		views := workload.ChainViews(rng, n, true, workload.DefaultViewSpec(6))
		base := workload.ChainDatabase(rng, n, true, 40, 6)
		rep, err := Compare(q, views, base)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.MethodsAgree {
			t.Fatalf("seed %d: methods disagree: %+v", seed, rep)
		}
		if !rep.SoundMC || !rep.SoundIR {
			t.Fatalf("seed %d: unsound: %+v", seed, rep)
		}
	}
}

func TestViaMiniConDirect(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "b"})
	views := []*cq.Query{mustQ("v(A,B) :- r(A,B)")}
	viewDB, _ := datalog.MaterializeViews(base, views)
	got, err := ViaMiniCon(mustQ("q(X) :- r(X,Y)"), views, viewDB)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got, []storage.Tuple{{"a"}}) {
		t.Fatalf("got %v", got)
	}
}

func TestViaMiniConInvalidViews(t *testing.T) {
	views := []*cq.Query{mustQ("v(A) :- r(A)"), mustQ("v(B) :- s(B)")}
	if _, err := ViaMiniCon(mustQ("q(X) :- r(X)"), views, storage.NewDatabase()); err == nil {
		t.Fatal("duplicate view names accepted")
	}
}

// TestSubsetComparesColumns pins that subset tests membership by columns:
// two tuples whose Tuple.Key coincide are not taken for each other.
func TestSubsetComparesColumns(t *testing.T) {
	a, b := []storage.Tuple{{"a\x1fb", "c"}}, []storage.Tuple{{"a", "b\x1fc"}}
	if subset(a, b) || subset(b, a) {
		t.Fatal("subset confuses two tuples with the same key")
	}
	if !subset(a, append(b, a[0])) || !subset(nil, b) || subset(a, nil) {
		t.Fatal("subset wrong on plain membership")
	}
}
