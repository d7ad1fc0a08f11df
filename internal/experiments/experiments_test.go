package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID:      "X0",
		Title:   "demo",
		Columns: []string{"a", "long_column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "note",
	}
	out := tbl.Render()
	for _, want := range []string{"== X0: demo ==", "long_column", "333", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	if len(IDs()) != 13 {
		t.Fatalf("IDs = %v", IDs())
	}
	for _, id := range IDs() {
		run, ok := ByID(id)
		if !ok || run == nil {
			t.Fatalf("ByID(%s) missing", id)
		}
		if _, ok := ByID(strings.ToLower(id)); !ok {
			t.Fatalf("ByID lowercase %s missing", id)
		}
	}
	if _, ok := ByID("Z9"); ok {
		t.Fatal("unknown id accepted")
	}
}

func TestT1NoViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment; skipped with -short")
	}
	tbl := T1RewritingLengthBound()
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "0" {
			t.Fatalf("length-bound violation: %v", row)
		}
	}
}

func TestT4EnginesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment; skipped with -short")
	}
	tbl := T4Containment()
	if strings.Contains(tbl.Notes, "DISAGREEMENT") {
		t.Fatalf("containment engines disagree:\n%s", tbl.Render())
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestT5WitnessRow(t *testing.T) {
	tbl := T5ComparisonContainment()
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[2] != "sound=false" || last[3] != "complete=true" {
		t.Fatalf("witness row wrong: %v", last)
	}
}

func TestF5InvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment; skipped with -short")
	}
	tbl := F5CertainAnswers()
	if !strings.Contains(tbl.Notes, "all-agree=true") || !strings.Contains(tbl.Notes, "all-sound=true") {
		t.Fatalf("F5 invariants violated:\n%s", tbl.Render())
	}
}

func TestF1RowsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment; skipped with -short")
	}
	tbl := F1ChainViews()
	if len(tbl.Rows) != 4 {
		t.Fatalf("F1 rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("ragged row: %v", row)
		}
	}
}

func TestF4Agreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment; skipped with -short")
	}
	tbl := F4InverseRulesEval()
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("F4 methods disagree: %v", row)
		}
	}
}

// TestAblationSuite runs the ablation experiments (T6 semi-interval
// dispatch, F6 minimisation, F7 evaluator optimisations) and checks the
// claim each table's verdict column makes: the two containment tests of T6
// and the two evaluators of F7 must agree on every row, and F6 must find a
// rewriting with and without minimisation. Like the other
// slow experiment tables it is gated behind -short so the fast suite stays
// fast while full runs keep coverage.
func TestAblationSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation suite; skipped with -short")
	}
	for _, tc := range []struct {
		id      string
		run     func() Table
		verdict string // column that must read "true" on every row, if any
	}{
		{"T6", T6SemiInterval, "agree"},
		{"F6", F6Minimization, "found_both"},
		{"F7", F7EvaluatorAblation, "answers_equal"},
	} {
		tbl := tc.run()
		if tbl.ID != tc.id {
			t.Fatalf("%s: table ID = %q", tc.id, tbl.ID)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s: no rows", tc.id)
		}
		verdict := slices.Index(tbl.Columns, tc.verdict)
		if tc.verdict != "" && verdict < 0 {
			t.Fatalf("%s: no %q column in %v", tc.id, tc.verdict, tbl.Columns)
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Fatalf("%s: ragged row %v", tc.id, row)
			}
			if verdict >= 0 && row[verdict] != "true" {
				t.Fatalf("%s: %s is not true in row %v", tc.id, tc.verdict, row)
			}
		}
	}
}
