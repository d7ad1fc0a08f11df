package durable

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// TestBatchBaseListsDifferential runs seeded random mixed batches through
// datalog's ApplyUpdatesCtx and checks, after each, the base lists the WAL
// appends: the journal keeps them across batches, so they must still read,
// order included, exactly what a batch built afresh — per predicate, the
// stored copies of the rows it deleted that were present, deduplicated in
// request order, and the stored copies of the rows it inserted that were
// new, in request order — and the WAL frame encoded from them must be
// byte-identical to the one encoded from those lists. The batches repeat
// inserts, insert rows already present, delete absent rows and rows of
// relations that do not exist, create base relations (one a rule reads,
// one none does), delete and re-insert a row in one batch, leave DRed
// survivors (v has several derivations per row, p is recursive), and now
// and then delete more rows than the journal keeps room for: the reset
// after such a batch keeps no arena, and the one after any other keeps the
// batch's.
func TestBatchBaseListsDifferential(t *testing.T) {
	var rules []datalog.Rule
	for _, src := range []string{
		"v(X,Y) :- r(X,Z), s(Z,Y)",
		"p(X,Y) :- r(X,Y)",
		"p(X,Y) :- p(X,Z), r(Z,Y)",
		"w(X) :- n(X), r(X,Y)",
	} {
		rules = append(rules, datalog.RuleFromQuery(cq.MustParseQuery(src)))
	}
	cp, err := datalog.CompileProgramIVM(&datalog.Program{Rules: rules}, nil)
	if err != nil {
		t.Fatal(err)
	}
	arity := map[string]int{"r": 2, "s": 2, "n": 1, "x": 3}
	preds := []string{"r", "s", "n", "x"}
	rng := rand.New(rand.NewSource(68))
	row := func(pred string) storage.Tuple {
		tu := make(storage.Tuple, arity[pred])
		for i := range tu {
			tu[i] = fmt.Sprint(rng.Intn(6))
		}
		return tu
	}
	batches := 400
	if testing.Short() {
		batches = 80
	}
	var db *storage.Database
	survived := 0 // v rows a deleted r row supported that the batch kept
	for b := 0; b < batches; b++ {
		if b%40 == 0 {
			// A fresh stream: n and x do not exist until a batch creates them.
			base := storage.NewDatabase()
			for i := 0; i < 12; i++ {
				base.Insert("r", row("r"))
				base.Insert("s", row("s"))
			}
			if db, err = cp.Eval(base); err != nil {
				t.Fatal(err)
			}
		}
		ins, del := make(map[string][]storage.Tuple), make(map[string][]storage.Tuple)
		for _, pred := range preds {
			if rng.Intn(3) == 0 {
				continue
			}
			for range rng.Intn(5) {
				if rel := db.Relation(pred); rel != nil && rel.Len() > 0 && rng.Intn(3) > 0 {
					del[pred] = append(del[pred], slices.Clone(rel.Tuples()[rng.Intn(rel.Len())]))
				} else {
					del[pred] = append(del[pred], row(pred)) // mostly absent
				}
			}
			for range rng.Intn(5) {
				switch d := del[pred]; {
				case len(d) > 0 && rng.Intn(4) == 0:
					ins[pred] = append(ins[pred], slices.Clone(d[rng.Intn(len(d))])) // deleted and re-inserted
				case len(ins[pred]) > 0 && rng.Intn(4) == 0:
					ins[pred] = append(ins[pred], slices.Clone(ins[pred][0])) // a repeat
				default:
					ins[pred] = append(ins[pred], row(pred))
				}
			}
		}
		del["none"] = []storage.Tuple{{"a"}}
		overCap := b%25 == 24
		if overCap {
			for range 5000 {
				del["r"] = append(del["r"], row("r"))
			}
		}

		// The lists a batch built afresh: the deletions off the pre-batch
		// database, the inserts off the database after the batch.
		wantDel := make(map[string][]storage.Tuple)
		for pred, ts := range del {
			rel := db.Relation(pred)
			if rel == nil {
				continue
			}
			seen := make(map[string]bool)
			for _, tu := range ts {
				if st, ok := rel.Stored(tu); ok && !seen[strings.Join(st, "\x1f")] {
					seen[strings.Join(st, "\x1f")] = true
					wantDel[pred] = append(wantDel[pred], st)
				}
			}
		}
		present := func(pred string, tu storage.Tuple) bool {
			rel := db.Relation(pred)
			return rel != nil && rel.Contains(tu) && !slices.ContainsFunc(wantDel[pred], func(d storage.Tuple) bool { return slices.Equal(d, tu) })
		}
		freshRows := make(map[string][]storage.Tuple)
		for pred, ts := range ins {
			for _, tu := range ts {
				if !present(pred, tu) && !slices.ContainsFunc(freshRows[pred], func(f storage.Tuple) bool { return slices.Equal(f, tu) }) {
					freshRows[pred] = append(freshRows[pred], tu)
				}
			}
		}

		var supported []storage.Tuple
		for _, d := range wantDel["r"] {
			for _, st := range db.Relation("s").Tuples() {
				if st[0] == d[1] {
					supported = append(supported, storage.Tuple{d[0], st[1]})
				}
			}
		}

		res, err := cp.ApplyUpdatesCtx(context.Background(), db, ins, del, datalog.Limits{})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		wantIns := make(map[string][]storage.Tuple)
		for pred, ts := range freshRows {
			for _, tu := range ts {
				st, ok := db.Relation(pred).Stored(tu)
				if !ok {
					t.Fatalf("batch %d: fresh row %s%q is not stored", b, pred, tu)
				}
				wantIns[pred] = append(wantIns[pred], st)
			}
		}
		for _, v := range supported {
			if db.Relation("v").Contains(v) {
				survived++
			}
		}
		sameLists(t, fmt.Sprintf("batch %d BaseDeleted", b), res.BaseDeleted, wantDel)
		sameLists(t, fmt.Sprintf("batch %d BaseInserted", b), res.BaseInserted, wantIns)
		lsn := uint64(b + 1)
		if got, want := encodeRecordFrame(lsn, res.BaseDeleted, res.BaseInserted), encodeRecordFrame(lsn, wantDel, wantIns); !bytes.Equal(got, want) {
			t.Fatalf("batch %d: WAL frame from the kept lists differs from the one from fresh lists:\n%x\n%x", b, got, want)
		}
		// The next reset keeps the batch's arena, unless it was sized past
		// the cap; res is read no further.
		n := 0
		for _, ts := range del {
			n += len(ts)
		}
		_, _, arena := storage.NewJournal(db).BaseLists(0)
		if overCap && cap(arena) != 0 {
			t.Fatalf("batch %d: the reset after %d deletions kept an arena of %d rows", b, n, cap(arena))
		} else if !overCap && cap(arena) < n {
			t.Fatalf("batch %d: the reset after %d deletions kept an arena of %d rows", b, n, cap(arena))
		}
	}
	if survived == 0 {
		t.Fatal("no batch kept a v row whose r support it deleted: DRed survivors went untested")
	}
}

// sameLists fails unless got and want hold the same predicates and, per
// predicate, the very same stored rows in the same order.
func sameLists(t *testing.T, what string, got, want map[string][]storage.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predicate(s) %q, want %d %q", what, len(got), got, len(want), want)
	}
	for pred, w := range want {
		g := got[pred]
		if !slices.EqualFunc(g, w, func(a, b storage.Tuple) bool {
			return unsafe.SliceData(a) == unsafe.SliceData(b) && slices.Equal(a, b)
		}) {
			t.Fatalf("%s[%s] = %q, want the stored rows %q", what, pred, g, w)
		}
		if cap(g) != len(g) {
			t.Fatalf("%s[%s] has capacity %d past its %d rows", what, pred, cap(g), len(g))
		}
	}
}
