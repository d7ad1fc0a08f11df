package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// TestApplyUpdateKeepsNoCallerTuple pins the ownership contract of the write
// path: stored tuples are shared, never the caller's. The caller overwrites
// every insert and delete tuple it passed right after ApplyUpdate returns —
// after a committed batch, a batch refused by its budget (rolled back
// through the journal) and a batch the WAL refused (undone on the
// maintained side) — and both serving sides, the maintainer's base
// relations and a checkpoint-and-reboot must still hold what the reference
// evaluator derives from the facts as they were. A path that stored a
// caller's tuple, by Adopt or by carrying it into the journal or the
// replay, would serve the overwritten values. Both serving layouts run:
// extents only, and extents beside the base relations (AllowPartial).
func TestApplyUpdateKeepsNoCallerTuple(t *testing.T) {
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for _, partial := range []bool{false, true} {
		for _, outcome := range []string{"committed", "refused", "undone"} {
			t.Run(fmt.Sprintf("%s/partial=%v", outcome, partial), func(t *testing.T) {
				dir := t.TempDir()
				base, views := testBase(t)
				opt := durOpts(dir)
				opt.AllowPartial = partial
				e, err := NewFromBase(base, views, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				want := base.Clone()
				ins := map[string][]storage.Tuple{
					"r": {{"c", "m"}, {"c", "n"}, {"a", "m"}},
					"s": {{"n", "z"}},
					"t": {{"n"}},
				}
				del := map[string][]storage.Tuple{
					"r": {{"a", "m"}, {"b", "n"}, {"b", "n"}},
					"s": {{"m", "x"}, {"absent", "x"}},
				}
				var uerr error
				switch outcome {
				case "committed":
					uerr = e.ApplyUpdate(ins, del)
					for pred, tuples := range del {
						for _, tu := range tuples {
							want.Remove(pred, tu)
						}
					}
					for pred, tuples := range ins {
						for _, tu := range tuples {
							want.Insert(pred, tu)
						}
					}
				case "refused":
					// Over-deletion derives more than one tuple, so the
					// budget trips at the re-derivation's first barrier,
					// after the deletions were made.
					uerr = e.ApplyUpdateBudget(t.Context(), ins, del, Budget{MaxDerivedTuples: 1})
					if !errors.Is(uerr, ErrBudgetExceeded) {
						t.Fatalf("budgeted batch returned %v, want ErrBudgetExceeded", uerr)
					}
				case "undone":
					if err := e.dur.store.Close(); err != nil {
						t.Fatal(err)
					}
					uerr = e.ApplyUpdate(ins, del)
					if !errors.Is(uerr, ErrDurability) {
						t.Fatalf("batch after a WAL failure returned %v, want ErrDurability", uerr)
					}
				}
				if outcome == "committed" && uerr != nil {
					t.Fatal(uerr)
				}
				for _, m := range []map[string][]storage.Tuple{ins, del} {
					for _, tuples := range m {
						for _, tu := range tuples {
							for i := range tu {
								tu[i] = "clobbered"
							}
						}
					}
				}

				extents, err := datalog.MaterializeViews(want, views)
				if err != nil {
					t.Fatal(err)
				}
				checkServed := func(label string, db *storage.Database) {
					t.Helper()
					for _, v := range views {
						if got, w := db.Relation(v.Name()).Tuples(), extents.Relation(v.Name()).Tuples(); !storage.TuplesEqual(got, w) {
							t.Fatalf("%s: extent %s = %v, want %v", label, v.Name(), got, w)
						}
					}
				}
				checkSides(t, e)
				for i, side := range e.live.sides {
					checkServed(fmt.Sprintf("side %d", i), side)
				}
				maint := e.live.maint.Database()
				for _, pred := range want.Predicates() {
					if got, w := maint.Relation(pred).Tuples(), want.Relation(pred).Tuples(); !storage.TuplesEqual(got, w) {
						t.Fatalf("maintainer's base %s = %v, want %v", pred, got, w)
					}
				}
				wantRows, err := datalog.MaterializeViews(want, []*cq.Query{q})
				if err != nil {
					t.Fatal(err)
				}
				if got := mustAnswer(t, e, q); !storage.TuplesEqual(got, wantRows.Relation("q").Tuples()) {
					t.Fatalf("answers %v, want %v", got, wantRows.Relation("q").Tuples())
				}

				// A checkpoint writes what the sides hold; a batch the WAL
				// refused leaves the store closed, so that reboot reads the
				// boot snapshot.
				if outcome != "undone" {
					if err := e.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				e.Close()
				re, err := NewFromBase(nil, views, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				checkServed("rebooted", re.Database())
				if got := mustAnswer(t, re, q); !storage.TuplesEqual(got, wantRows.Relation("q").Tuples()) {
					t.Fatalf("rebooted answers %v, want %v", got, wantRows.Relation("q").Tuples())
				}
			})
		}
	}
}
