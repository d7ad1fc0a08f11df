package datalog

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
)

// Projection pushdown in the compiled plan: a don't-care position — an
// existential variable occurring once and reaching neither the head nor a
// comparison — gets no column op, and a step that still binds something
// dedups on its bound columns instead of enumerating the dropped ones.

// stepOf returns the compiled step reading pred.
func stepOf(t *testing.T, p *CompiledPlan, pred string) *compiledStep {
	t.Helper()
	for i := range p.components {
		for j := range p.components[i].steps {
			if s := &p.components[i].steps[j]; s.pred == pred {
				return s
			}
		}
	}
	t.Fatalf("no step reads %s:\n%s", pred, p.Describe())
	return nil
}

func TestProjectBodyDropsDontCares(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", storage.Tuple{"a", "x1"})
	db.Insert("r", storage.Tuple{"a", "x2"})
	db.Insert("r", storage.Tuple{"b", "x3"})
	q := mustQ("q(X) :- r(X,F)")
	s := stepOf(t, Compile(q, nil), "r")
	if len(s.ops) != 1 || s.ops[0].col != 0 || !s.dedup {
		t.Fatalf("don't-care column not dropped: %+v", s)
	}
	if got := EvalQuery(db, q); len(got) != 2 {
		t.Fatalf("projected answers = %v, want a and b", got)
	}
}

func TestProjectBodyKeepsJoinVars(t *testing.T) {
	p := Compile(mustQ("q(X) :- r(X,J), s(J,F)"), nil)
	// r keeps both columns (X head, J join); s drops F only.
	if s := stepOf(t, p, "r"); len(s.ops) != 2 {
		t.Fatalf("r projected wrongly: %+v", s)
	}
	if s := stepOf(t, p, "s"); len(s.ops) != 1 || s.ops[0].col != 0 {
		t.Fatalf("s should keep only J: %+v", s)
	}
}

func TestProjectBodyKeepsComparisonVars(t *testing.T) {
	p := Compile(mustQ("q(X) :- r(X,Y), Y > 3"), nil)
	if s := stepOf(t, p, "r"); len(s.ops) != 2 {
		t.Fatalf("comparison variable dropped: %+v", s)
	}
}

func TestProjectBodyRepeatedVarInAtom(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("r", storage.Tuple{"a", "a"})
	db.Insert("r", storage.Tuple{"a", "b"})
	// F occurs twice within one atom: both positions must survive so the
	// equality is enforced.
	got := EvalQuery(db, mustQ("q(c) :- r(F,F)"))
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestProjectBodyMissingRelation(t *testing.T) {
	db := storage.NewDatabase()
	got := EvalQuery(db, mustQ("q(X) :- r(X,F)"))
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestProjectionCorrectnessAgainstUnprojected(t *testing.T) {
	// The projected evaluation must return exactly the same answers as a
	// query whose don't-care positions are head-exposed (forcing the
	// unprojected path), modulo the extra column.
	db := storage.NewDatabase()
	for i := 0; i < 50; i++ {
		db.Insert("r", storage.Tuple{fmt.Sprint(i % 7), fmt.Sprint(i)})
	}
	projected := EvalQuery(db, mustQ("q(X) :- r(X,F)"))
	full := EvalQuery(db, mustQ("q(X,F) :- r(X,F)"))
	seen := map[string]bool{}
	for _, t2 := range full {
		seen[t2[0]] = true
	}
	if len(projected) != len(seen) {
		t.Fatalf("projected %d answers, expected %d", len(projected), len(seen))
	}
}

// The motivating regression: connected chains with don't-care existential
// columns must evaluate in near-linear time.
func TestProjectionPerformanceChain(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 300; i++ {
		a, b, c, d := fmt.Sprint(i%6), fmt.Sprint(i%7), fmt.Sprint(i%5), fmt.Sprint(i)
		db.Insert("v", storage.Tuple{a, b, c, d})
	}
	// Join on X1, X2; F* are don't-care.
	q := mustQ("q(X0,X3) :- v(X0,X1,F0,F1), v(F2,X1,X2,F3), v(F4,F5,X2,X3)")
	start := time.Now()
	got := EvalQuery(db, q)
	elapsed := time.Since(start)
	if len(got) == 0 {
		t.Fatal("no answers")
	}
	if elapsed > time.Second {
		t.Fatalf("projection not effective: %v", elapsed)
	}
}
