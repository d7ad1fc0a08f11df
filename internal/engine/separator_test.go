package engine

import (
	"fmt"
	"testing"

	"repro/internal/cq"
	"repro/internal/storage"
)

// TestSeparatorCollapse: two base tuples whose Tuple.Key strings coincide,
// ("a\x1fb","c") and ("a","b\x1fc"), are different tuples on every engine
// path. Every strategy answers q(X,Y) :- r(X,Y) through the view
// v(X,Y) :- r(X,Y) with both of them, on a static engine, a live one and a
// durable one (at boot and after a reopen); on the live and durable engines
// deleting one of the pair keeps the other, and a batch that inserts one
// while deleting the other swaps them.
func TestSeparatorCollapse(t *testing.T) {
	a, b, d := storage.Tuple{"a\x1fb", "c"}, storage.Tuple{"a", "b\x1fc"}, storage.Tuple{"d", "e"}
	views, err := cq.ParseViews("v(X,Y) :- r(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Y)")
	for _, strat := range Strategies() {
		for _, mode := range []string{"static", "live", "durable"} {
			t.Run(fmt.Sprintf("%s/%s", strat, mode), func(t *testing.T) {
				opt := Options{Strategy: strat, LiveUpdates: mode == "live"}
				if mode == "durable" {
					opt = durOpts(t.TempDir())
					opt.Strategy = strat
				}
				base := storage.NewDatabase()
				for _, tup := range []storage.Tuple{a, b, d} {
					base.Insert("r", tup)
				}
				e, err := NewFromBase(base, views, opt)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { e.Close() }()
				check := func(step string, want ...storage.Tuple) {
					t.Helper()
					if got := mustAnswer(t, e, q); !storage.TuplesEqual(got, want) {
						t.Fatalf("%s: answers %q, want %q", step, got, want)
					}
				}
				reopen := func() {
					t.Helper()
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					if e, err = NewFromBase(nil, views, opt); err != nil {
						t.Fatal(err)
					}
				}
				check("boot", a, b, d)
				if mode == "static" {
					return
				}
				if mode == "durable" {
					reopen()
					check("reopen", a, b, d)
				}
				if err := e.ApplyUpdate(nil, map[string][]storage.Tuple{"r": {a}}); err != nil {
					t.Fatal(err)
				}
				check("one of the pair deleted", b, d)
				if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {a}}, map[string][]storage.Tuple{"r": {b}}); err != nil {
					t.Fatal(err)
				}
				check("the pair swapped", a, d)
				if mode == "durable" {
					reopen()
					check("reopen after the swap", a, d)
				}
			})
		}
	}
}
