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

func testViews(t *testing.T) (*storage.Database, []*cq.Query) {
	t.Helper()
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"a", "m"})
	base.Insert("r", storage.Tuple{"b", "n"})
	base.Insert("s", storage.Tuple{"m", "x"})
	views, err := cq.ParseViews(`
		v(A,B)  :- r(A,C), s(C,B).
		vr(A,B) :- r(A,B).
		big(A,B) :- s(A,B), B > 5.
	`)
	if err != nil {
		t.Fatal(err)
	}
	return base, views
}

func TestMaintainerBasics(t *testing.T) {
	base, views := testViews(t)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsView("v") || m.IsView("r") {
		t.Fatal("IsView wrong")
	}
	if got := m.Database().Relation("v").Len(); got != 1 {
		t.Fatalf("initial v extent = %d, want 1", got)
	}
	// Non-numeric values compare lexicographically: "x" > "5" holds.
	if got := m.Database().Relation("big").Len(); got != 1 {
		t.Fatalf("initial big extent = %d, want 1", got)
	}

	res, err := m.ApplyUpdate(map[string][]storage.Tuple{
		"s": {{"n", "9"}, {"m", "x"}}, // one new join partner, one duplicate
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BaseInserted["s"]) != 1 {
		t.Fatalf("BaseInserted = %v, want one new s tuple", res.BaseInserted)
	}
	// s(n,9) joins r(b,n) into v, and 9 > 5 enters big.
	if stored := storedRows(t, res); len(stored["v"]) != 1 || len(stored["big"]) != 1 {
		t.Fatalf("stored %v, want one v and one big tuple", stored)
	}
	if !m.Database().Relation("v").Contains(storage.Tuple{"b", "9"}) {
		t.Fatal("v extent missing maintained tuple")
	}
	if !m.Database().Relation("v").Frozen() {
		t.Fatal("extent lost its indexes across maintenance")
	}

	// Inserting into a view predicate is rejected and mutates nothing.
	if _, err := m.ApplyUpdate(map[string][]storage.Tuple{"v": {{"z", "z"}}}, nil); err == nil {
		t.Fatal("insert into view extent accepted")
	}

	if res.Stats.Derived != 2 || res.Stats.Iterations == 0 {
		t.Fatalf("Stats = %+v, want 2 tuples derived in at least one round", res.Stats)
	}
}

func TestMaintainerEmptyViewSet(t *testing.T) {
	if _, err := New(storage.NewDatabase(), nil, Options{}); err == nil {
		t.Fatal("empty view set accepted")
	}
}

// TestConstructorsValidate: both constructors refuse an empty, unsafe or
// arity-conflicting view set, accept a nil database as the empty one, and
// NewFromMaterialized supplies the extents a snapshot left out because they
// were empty.
func TestConstructorsValidate(t *testing.T) {
	unsafe := []*cq.Query{{Head: cq.NewAtom("v", cq.Var("X")), Body: []cq.Atom{cq.NewAtom("r", cq.Var("Y"))}}}
	clash, err := cq.ParseViews("v(A) :- r(A,B). v(A,B) :- r(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	for name, views := range map[string][]*cq.Query{"empty": nil, "unsafe": unsafe, "arity clash": clash} {
		if _, err := New(storage.NewDatabase(), views, Options{}); err == nil {
			t.Errorf("New accepted the %s view set", name)
		}
		if _, err := NewFromMaterialized(storage.NewDatabase(), views); err == nil {
			t.Errorf("NewFromMaterialized accepted the %s view set", name)
		}
	}

	_, views := testViews(t)
	fresh, err := New(nil, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := NewFromMaterialized(nil, views)
	if err != nil {
		t.Fatal(err)
	}
	batch := map[string][]storage.Tuple{"r": {{"a", "m"}}, "s": {{"m", "9"}}}
	for name, m := range map[string]*Maintainer{"New": fresh, "NewFromMaterialized": recovered} {
		res, err := m.ApplyUpdate(batch, nil)
		if err != nil {
			t.Fatalf("%s over a nil database: %v", name, err)
		}
		if stored := storedRows(t, res); len(stored["v"]) != 1 || len(stored["vr"]) != 1 || len(stored["big"]) != 1 {
			t.Fatalf("%s over a nil database derived %v", name, stored)
		}
	}
}

// TestMaintainerDifferential drives random update streams over random view
// sets and checks every extent against a full MaterializeViews of the
// accumulated base after each batch.
func TestMaintainerDifferential(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(0xBEEF))
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
		for batch := 0; batch < 1+rng.Intn(3); batch++ {
			upd := make(map[string][]storage.Tuple)
			for i := 0; i < 1+rng.Intn(5); i++ {
				p := preds[rng.Intn(len(preds))]
				tup := storage.Tuple{
					fmt.Sprintf("c%d", rng.Intn(16)),
					fmt.Sprintf("c%d", rng.Intn(16)),
				}
				upd[p] = append(upd[p], tup)
				shadow.Insert(p, tup)
			}
			if _, err := m.ApplyUpdate(upd, nil); err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, batch, err)
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
			// Base relations track the shadow exactly.
			for _, p := range preds {
				if !storage.TuplesEqual(m.Database().Relation(p).Tuples(), shadow.Relation(p).Tuples()) {
					t.Fatalf("trial %d batch %d: base %s diverges", trial, batch, p)
				}
			}
		}
	}
}
