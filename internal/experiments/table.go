// Package experiments implements the reproduction experiment suite defined
// in DESIGN.md Section 6. Every experiment returns a Table that cmd/aqvbench
// prints and this package's tests assert on. Instances are sized so the
// whole suite runs in seconds while every table keeps at least two sizes
// per shape. All randomness is seeded, so tables are reproducible
// run-to-run (timings vary with the machine, shapes do not).
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result: an id matching DESIGN.md, a set of
// columns and formatted rows, and free-text notes on what the shape shows.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// Render formats the table with aligned columns.
func (t Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		sb.WriteString(t.Notes)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// timeIt runs f and returns its wall-clock duration.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())+float64(d.Nanoseconds()%1000)/1000)
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }

// registry maps experiment ids to their (unexecuted) runners, in DESIGN.md
// order.
var registry = []struct {
	id  string
	run func() Table
}{
	{"T1", T1RewritingLengthBound},
	{"T2", T2ExistenceScaling},
	{"T3", T3Usability},
	{"T4", T4Containment},
	{"T5", T5ComparisonContainment},
	{"T6", T6SemiInterval},
	{"F1", F1ChainViews},
	{"F2", F2StarViews},
	{"F3", F3CompleteViews},
	{"F4", F4InverseRulesEval},
	{"F5", F5CertainAnswers},
	{"F6", F6Minimization},
	{"F7", F7EvaluatorAblation},
}

// ByID returns the runner for the experiment with the given id, or
// ok=false. Experiments execute only when the runner is invoked.
func ByID(id string) (func() Table, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.id, id) {
			return e.run, true
		}
	}
	return nil, false
}

// IDs lists the experiment identifiers in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}
