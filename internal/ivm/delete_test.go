package ivm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
	"repro/internal/workload"
)

func TestMaintainerApplyUpdateBasics(t *testing.T) {
	base, views := testViews(t)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Delete r(a,m): v(a,x) loses its only derivation, vr(a,m) too.
	probeEvery(m.Database().Relation("v"))
	before := m.Database().Clone()
	res, err := m.ApplyUpdate(nil, map[string][]storage.Tuple{"r": {{"a", "m"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseDeleted["r"]) != 1 {
		t.Fatalf("BaseDeleted = %v", res.BaseDeleted)
	}
	lostV, lostVR := lostRows(before, m.Database(), "v"), lostRows(before, m.Database(), "vr")
	if len(lostV) != 1 || len(lostVR) != 1 || res.NetRetracted != 2 {
		t.Fatalf("retracted v %v and vr %v (%d net), want one v and one vr tuple", lostV, lostVR, res.NetRetracted)
	}
	if stored := storedRows(t, res); len(stored) != 0 {
		t.Fatalf("a delete without survivors journaled stored rows %v", stored)
	}
	if m.Database().Relation("v").Contains(storage.Tuple{"a", "x"}) {
		t.Fatal("retracted extent tuple survives")
	}
	assertIndexesKept(t, m.Database().Relation("v"))
	if got := m.Database().Relation("v").Lookup(0, "a"); len(got) != 0 {
		t.Fatalf("v's maintained index still finds %v for a", got)
	}

	// Mixed batch: re-insert r(a,m) and delete s(m,x) — v(a,x) must not
	// come back (its join partner is gone) but vr(a,m) must.
	res, err = m.ApplyUpdate(
		map[string][]storage.Tuple{"r": {{"a", "m"}}},
		map[string][]storage.Tuple{"s": {{"m", "x"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Database().Relation("v").Contains(storage.Tuple{"a", "x"}) {
		t.Fatal("v(a,x) re-derived without its join partner")
	}
	if !m.Database().Relation("vr").Contains(storage.Tuple{"a", "m"}) {
		t.Fatalf("vr(a,m) not re-derived by the insert side: %+v", res)
	}

	// Deleting a view extent is rejected and mutates nothing.
	if _, err := m.ApplyUpdate(nil, map[string][]storage.Tuple{"v": {{"z", "z"}}}); err == nil {
		t.Fatal("delete from view extent accepted")
	}

	if len(res.BaseDeleted["s"]) != 1 || len(res.BaseInserted["r"]) != 1 {
		t.Fatalf("mixed batch = %+v, want one s tuple deleted and one r tuple inserted", res)
	}
}

// TestMaintainerUpdateDifferential drives random mixed insert/delete
// streams over random view sets, across worker counts, and checks every
// extent against a full re-materialization of the surviving base after
// each batch.
func TestMaintainerUpdateDifferential(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(0xD_E1E7))
	preds := []string{"p1", "p2", "p3"}
	for trial := 0; trial < trials; trial++ {
		base := workload.RandomDatabase(rng, preds, 2, 5+rng.Intn(40), 4+rng.Intn(12))
		q := workload.RandomQuery(rng, 2+rng.Intn(3), len(preds), 0.5)
		views := workload.RandomViewsForQuery(rng, q, workload.ViewSpec{
			Count: 1 + rng.Intn(4), MinLen: 1, MaxLen: 3, ExposeProb: 0.6,
		})
		m, err := New(base, views, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shadow := base.Clone()
		for batch := 0; batch < 2+rng.Intn(3); batch++ {
			ins := make(map[string][]storage.Tuple)
			del := make(map[string][]storage.Tuple)
			if batch > 0 || rng.Intn(2) == 0 { // sometimes an insert-only first batch
				for _, p := range preds {
					rel := shadow.Relation(p)
					if rel == nil || rel.Len() == 0 || rng.Intn(3) == 0 {
						continue
					}
					tuples := rel.Tuples()
					for i := 0; i < 1+rng.Intn(3); i++ {
						del[p] = append(del[p], tuples[rng.Intn(len(tuples))])
					}
				}
			}
			for i := 0; i < rng.Intn(5); i++ {
				p := preds[rng.Intn(len(preds))]
				ins[p] = append(ins[p], storage.Tuple{
					fmt.Sprintf("c%d", rng.Intn(16)),
					fmt.Sprintf("c%d", rng.Intn(16)),
				})
			}
			if _, err := m.ApplyUpdate(ins, del); err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, batch, err)
			}
			for p, tuples := range del {
				for _, tup := range tuples {
					shadow.Remove(p, tup)
				}
			}
			for p, tuples := range ins {
				for _, tup := range tuples {
					shadow.Insert(p, tup)
				}
			}
			want, err := datalog.MaterializeViews(shadow, views)
			if err != nil {
				t.Fatalf("trial %d batch %d: rematerialize: %v", trial, batch, err)
			}
			for _, v := range views {
				got := m.Database().Relation(v.Name()).Tuples()
				if !storage.TuplesEqual(got, want.Relation(v.Name()).Tuples()) {
					t.Fatalf("trial %d batch %d: extent %s diverges\n  incremental: %v\n  full:        %v\n  view: %s",
						trial, batch, v.Name(), got, want.Relation(v.Name()).Tuples(), v)
				}
			}
			for _, p := range preds {
				if !storage.TuplesEqual(m.Database().Relation(p).Tuples(), shadow.Relation(p).Tuples()) {
					t.Fatalf("trial %d batch %d: base %s diverges", trial, batch, p)
				}
			}
		}
	}
}

// TestNewFromMaterializedDifferential: the recovery constructor must resume
// exactly where the maintainer it was exported from stands. Build with New,
// apply a seeded insert/delete stream, rebuild a second maintainer from a
// clone of the first's database and its view list (what a durable snapshot
// persists), then feed both the same further stream: every batch must
// report the same deltas and leave the same database. A view-named base
// fact rides along, so the rebuild must read its given relation back.
func TestNewFromMaterializedDifferential(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 20
	}
	rng := rand.New(rand.NewSource(0x5EED_F00D))
	preds := []string{"p1", "p2", "p3"}
	for trial := 0; trial < trials; trial++ {
		base := workload.RandomDatabase(rng, preds, 2, 5+rng.Intn(40), 4+rng.Intn(12))
		q := workload.RandomQuery(rng, 2+rng.Intn(3), len(preds), 0.5)
		views := workload.RandomViewsForQuery(rng, q, workload.ViewSpec{
			Count: 1 + rng.Intn(4), MinLen: 1, MaxLen: 3, ExposeProb: 0.6,
		})
		givenFact := make(storage.Tuple, views[0].Arity())
		for i := range givenFact {
			givenFact[i] = "given"
		}
		base.Insert(views[0].Name(), givenFact)
		orig, err := New(base, views, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		shadow := base.Clone()
		randomUpdate := func(withDeletes bool) (ins, del map[string][]storage.Tuple) {
			ins = make(map[string][]storage.Tuple)
			del = make(map[string][]storage.Tuple)
			for _, p := range preds {
				rel := shadow.Relation(p)
				if !withDeletes || rel == nil || rel.Len() == 0 || rng.Intn(3) == 0 {
					continue
				}
				tuples := rel.Tuples()
				for i := 0; i < 1+rng.Intn(3); i++ {
					del[p] = append(del[p], tuples[rng.Intn(len(tuples))])
				}
			}
			for i := 0; i < rng.Intn(5); i++ {
				p := preds[rng.Intn(len(preds))]
				ins[p] = append(ins[p], storage.Tuple{
					fmt.Sprintf("c%d", rng.Intn(16)),
					fmt.Sprintf("c%d", rng.Intn(16)),
				})
			}
			for p, tuples := range del {
				for _, tup := range tuples {
					shadow.Remove(p, tup)
				}
			}
			for p, tuples := range ins {
				for _, tup := range tuples {
					shadow.Insert(p, tup)
				}
			}
			return ins, del
		}
		// Half the trials export before any deletion built the counts.
		warmDeletes := trial%2 == 0
		for batch := 0; batch < 1+rng.Intn(3); batch++ {
			ins, del := randomUpdate(warmDeletes)
			if _, err := orig.ApplyUpdate(ins, del); err != nil {
				t.Fatalf("trial %d warm-up %d: %v", trial, batch, err)
			}
		}
		rebuilt, err := NewFromMaterialized(orig.Database().Clone(), orig.views)
		if err != nil {
			t.Fatalf("trial %d: rebuild: %v", trial, err)
		}
		if got, want := dbFingerprint(rebuilt.Database()), dbFingerprint(orig.Database()); got != want {
			t.Fatalf("trial %d: rebuilt database differs before any batch", trial)
		}
		for batch := 0; batch < 2+rng.Intn(3); batch++ {
			ins, del := randomUpdate(true)
			want, err := orig.ApplyUpdate(ins, del)
			if err != nil {
				t.Fatalf("trial %d batch %d: original: %v", trial, batch, err)
			}
			got, err := rebuilt.ApplyUpdate(ins, del)
			if err != nil {
				t.Fatalf("trial %d batch %d: rebuilt: %v", trial, batch, err)
			}
			for _, part := range []struct {
				name      string
				got, want map[string][]storage.Tuple
			}{
				{"BaseInserted", got.BaseInserted, want.BaseInserted},
				{"BaseDeleted", got.BaseDeleted, want.BaseDeleted},
				{"journaled stored rows", storedRows(t, got), storedRows(t, want)},
			} {
				if g, w := deltaFingerprint(part.got), deltaFingerprint(part.want); g != w {
					t.Fatalf("trial %d batch %d: %s diverges\n  rebuilt:  %s\n  original: %s", trial, batch, part.name, g, w)
				}
			}
			// The databases agree before and after the batch, so with the
			// stored rows they agree on the rows it removed; the net
			// retraction count must agree too.
			if got.NetRetracted != want.NetRetracted {
				t.Fatalf("trial %d batch %d: retracted %d, original %d", trial, batch, got.NetRetracted, want.NetRetracted)
			}
			// Rounds are path accounting, not part of the result; the
			// derived-tuple count is.
			if got.Stats.Derived != want.Stats.Derived {
				t.Fatalf("trial %d batch %d: derived %d, original %d", trial, batch, got.Stats.Derived, want.Stats.Derived)
			}
			if g, w := dbFingerprint(rebuilt.Database()), dbFingerprint(orig.Database()); g != w {
				t.Fatalf("trial %d batch %d: databases diverge\nrebuilt:\n%s\noriginal:\n%s", trial, batch, g, w)
			}
		}
		if !rebuilt.Database().Relation(views[0].Name()).Contains(givenFact) {
			t.Fatalf("trial %d: given fact %v retracted after rebuild", trial, givenFact)
		}
	}
}

// storedRows reads the rows a batch stored back from its journal: replayed
// onto an empty database, the journal leaves exactly the rows past its
// insert marks, per predicate — the fresh base rows, the DRed survivors
// and the new derivations.
func storedRows(t *testing.T, res *BatchResult) map[string][]storage.Tuple {
	t.Helper()
	tail := storage.NewDatabase()
	if err := res.Journal.Replay(storage.NewJournal(tail), func(string) bool { return true }); err != nil {
		t.Fatalf("replaying the batch's journal: %v", err)
	}
	out := make(map[string][]storage.Tuple)
	for _, pred := range tail.Predicates() {
		if rows := tail.Relation(pred).Tuples(); len(rows) > 0 {
			out[pred] = rows
		}
	}
	return out
}

// lostRows returns the rows of pred before holds and after does not.
func lostRows(before, after *storage.Database, pred string) []storage.Tuple {
	var out []storage.Tuple
	for _, row := range before.Relation(pred).Tuples() {
		if !after.Relation(pred).Contains(row) {
			out = append(out, row)
		}
	}
	return out
}

// deltaFingerprint renders a per-predicate tuple map order-independently,
// ignoring predicates with no tuples.
func deltaFingerprint(delta map[string][]storage.Tuple) string {
	db := storage.NewDatabase()
	for pred, tuples := range delta {
		for _, t := range tuples {
			db.Insert(pred, t)
		}
	}
	return dbFingerprint(db)
}

// TestGivenFactKeyCollision: a given fact and a derived tuple whose
// Tuple.Key strings coincide are different tuples, so deleting the derived
// tuple's last support retracts it and keeps the given fact alone.
func TestGivenFactKeyCollision(t *testing.T) {
	views, err := cq.ParseViews("v(X,Y) :- r(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	derived, given := storage.Tuple{"a", "b\x1fc"}, storage.Tuple{"a\x1fb", "c"}
	base := storage.NewDatabase()
	base.Insert("r", derived)
	base.Insert("v", given)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyUpdate(nil, map[string][]storage.Tuple{"r": {derived}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Database().Relation("v").Tuples(); !storage.TuplesEqual(got, []storage.Tuple{given}) {
		t.Fatalf("v = %q, want only the given fact %q", got, given)
	}
}

// TestGivenRelationGuarded: the relation holding a view's given facts is
// the maintainer's own — a batch writing it is refused on either side and
// changes nothing — and given facts of the wrong width are refused at
// construction.
func TestGivenRelationGuarded(t *testing.T) {
	views, err := cq.ParseViews("v(X,Y) :- r(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "b"})
	base.Insert("v", storage.Tuple{"g", "h"})
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := dbFingerprint(m.Database())
	g := GivenRelation("v")
	for _, batch := range [][2]map[string][]storage.Tuple{
		{{g: {{"x", "y"}}}, nil},
		{nil, {g: {{"g", "h"}}}},
		{{"r": {{"c", "d"}}, g: {{"x", "y"}}}, nil},
	} {
		if _, err := m.ApplyUpdate(batch[0], batch[1]); err == nil {
			t.Fatalf("batch writing %s accepted: %v", g, batch)
		}
	}
	if dbFingerprint(m.Database()) != before {
		t.Fatal("a refused batch changed the maintained database")
	}
	wide := storage.NewDatabase()
	wide.Insert("v", storage.Tuple{"g", "h", "i"})
	if _, err := New(wide, views, Options{}); err == nil {
		t.Fatal("New accepted given facts wider than the view")
	}
}
