package engine

import (
	"errors"
	"fmt"
	"math/rand"
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
// replay, would serve the overwritten values. The inserts span three
// chunks of storage.ChunkRows rows of r, repeat a row of s and re-insert
// one s holds, so the chunked copy of a batch is what is checked. Both
// serving layouts run: extents only, and extents beside the base relations
// (AllowPartial).
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
					"s": {{"n", "z"}, {"n", "y"}, {"n", "z"}},
					"t": {{"n"}},
				}
				for i := 0; i < 2*storage.ChunkRows+5; i++ {
					ins["r"] = append(ins["r"], storage.Tuple{fmt.Sprint("g", i), "n"})
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

// TestApplyUpdateReusedCallerRows: a caller may write its batch's tuples
// again as soon as ApplyUpdate returns, as the server does — it decodes
// every batch into a request-lifetime arena that the next request reuses.
// Here each batch is written into one backing array the caller reuses,
// inserts and deletes alike, and every column of it is overwritten after
// the call. After each batch both serving sides agree, and every view
// extent and a join query's answers equal datalog.EvalQueryNaive over a
// shadow base that applied the batches as they were.
func TestApplyUpdateReusedCallerRows(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	shadow := base.Clone()
	rng := rand.New(rand.NewSource(62))
	arena := make([]string, 0, 64)
	pick := func(prefix string, n int) string { return fmt.Sprint(prefix, rng.Intn(n)) }
	for batch := 0; batch < 40; batch++ {
		arena = arena[:0]
		row := func(vals ...string) storage.Tuple {
			at := len(arena)
			arena = append(arena, vals...)
			return arena[at:len(arena):len(arena)]
		}
		ins, del := make(map[string][]storage.Tuple), make(map[string][]storage.Tuple)
		for i := 0; i < 3; i++ {
			ins["r"] = append(ins["r"], row(pick("k", 5), pick("m", 3)))
			ins["s"] = append(ins["s"], row(pick("m", 3), pick("x", 4)))
			del["r"] = append(del["r"], row(pick("k", 5), pick("m", 3)))
		}
		ins["t"] = append(ins["t"], row(pick("m", 3)))
		del["s"] = append(del["s"], row(pick("m", 3), pick("x", 4)))
		if cap(arena) != 64 {
			t.Fatal("the batch outgrew its arena")
		}
		if err := e.ApplyUpdate(ins, del); err != nil {
			t.Fatal(err)
		}
		for pred, tuples := range del {
			for _, tu := range tuples {
				shadow.Remove(pred, tu)
			}
		}
		for pred, tuples := range ins {
			for _, tu := range tuples {
				if err := shadow.Insert(pred, tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := range arena {
			arena[i] = fmt.Sprint("clobbered", batch)
		}

		checkSides(t, e)
		label := fmt.Sprint("batch ", batch)
		for _, v := range views {
			if got, want := e.Database().Relation(v.Name()).Tuples(), datalog.EvalQueryNaive(shadow, v); !storage.TuplesEqual(got, want) {
				t.Fatalf("%s: extent %s = %v, want %v", label, v.Name(), got, want)
			}
		}
		if got, want := mustAnswer(t, e, q), datalog.EvalQueryNaive(shadow, q); !storage.TuplesEqual(got, want) {
			t.Fatalf("%s: answers %v, want %v", label, got, want)
		}
	}
}
