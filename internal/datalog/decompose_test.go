package datalog

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
)

func TestSplitComponentsBasic(t *testing.T) {
	q := mustQ("q(X,A) :- r(X,Y), s(Y), t(A,B), u(C)")
	comps := splitComponents(q, &compileScratch{})
	if len(comps) != 3 {
		t.Fatalf("components = %d", len(comps))
	}
	// r,s share Y; t alone; u alone.
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c.atoms)]++
	}
	if sizes[2] != 1 || sizes[1] != 2 {
		t.Fatalf("component sizes wrong: %v", sizes)
	}
}

func TestSplitComponentsComparisonsMerge(t *testing.T) {
	// A and X live in different atom components but the comparison joins
	// them.
	q := mustQ("q(X,A) :- r(X), t(A), X < A")
	comps := splitComponents(q, &compileScratch{})
	if len(comps) != 1 {
		t.Fatalf("comparison should merge components: %d", len(comps))
	}
}

func TestSplitComponentsConstantComparison(t *testing.T) {
	q := mustQ("q(X,A) :- r(X), t(A), 1 < 2")
	comps := splitComponents(q, &compileScratch{})
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	total := 0
	for _, c := range comps {
		total += len(c.comps)
	}
	if total != 1 {
		t.Fatalf("constant comparison lost: %d", total)
	}
}

func TestEvalDecomposedCrossProduct(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("a", storage.Tuple{"1"})
	db.Insert("a", storage.Tuple{"2"})
	db.Insert("b", storage.Tuple{"x"})
	db.Insert("b", storage.Tuple{"y"})
	got := EvalQuery(db, mustQ("q(X,Y) :- a(X), b(Y)"))
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestEvalDecomposedExistenceComponent(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("a", storage.Tuple{"1"})
	db.Insert("guard", storage.Tuple{"g"})
	// guard(W) has no head variable: it acts as an existence filter.
	got := EvalQuery(db, mustQ("q(X) :- a(X), guard(W)"))
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	// Empty guard relation: no answers.
	db2 := storage.NewDatabase()
	db2.Insert("a", storage.Tuple{"1"})
	got2 := EvalQuery(db2, mustQ("q(X) :- a(X), guard(W)"))
	if len(got2) != 0 {
		t.Fatalf("got %v", got2)
	}
}

func TestEvalDecomposedMatchesMonolithic(t *testing.T) {
	// Cross-check the decomposed path against a single-component rewrite
	// of the same semantics.
	db := storage.NewDatabase()
	for i := 0; i < 5; i++ {
		db.Insert("a", storage.Tuple{fmt.Sprint(i)})
		db.Insert("b", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
	}
	q := mustQ("q(X,Y,Z) :- a(X), b(Y,Z)")
	got := EvalQuery(db, q)
	if len(got) != 25 {
		t.Fatalf("got %d answers", len(got))
	}
}

func TestEvalDecomposedComparisonsWithinComponent(t *testing.T) {
	db := storage.NewDatabase()
	db.Insert("a", storage.Tuple{"1", "5"})
	db.Insert("a", storage.Tuple{"7", "5"})
	db.Insert("b", storage.Tuple{"x"})
	got := EvalQuery(db, mustQ("q(X,W) :- a(X,Y), b(W), X < Y"))
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("got %v", got)
	}
}

// The regression this machinery exists for: disconnected members must not
// take cross-product time.
func TestEvalDecomposedPerformance(t *testing.T) {
	db := storage.NewDatabase()
	for i := 0; i < 2000; i++ {
		db.Insert("v1", storage.Tuple{fmt.Sprint(i)})
		db.Insert("v2", storage.Tuple{fmt.Sprint(i)})
		db.Insert("v3", storage.Tuple{fmt.Sprint(i)})
	}
	q := mustQ("q(X) :- v1(X), v2(A), v3(B)")
	start := time.Now()
	got := EvalQuery(db, q)
	elapsed := time.Since(start)
	if len(got) != 2000 {
		t.Fatalf("got %d answers", len(got))
	}
	// A cross-product evaluation would enumerate 8e9 bindings; the
	// decomposed one touches ~6000 tuples. A generous bound proves the
	// fast path is in effect.
	if elapsed > 2*time.Second {
		t.Fatalf("decomposed evaluation too slow: %v", elapsed)
	}
}
