package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// builtIndexes names every column index built on a relation of dbs, by
// index: the pointer identifies an index, however many relations hold it.
func builtIndexes(dbs ...*storage.Database) map[*storage.ColIndex][]string {
	out := make(map[*storage.ColIndex][]string)
	for i, db := range dbs {
		for _, pred := range db.Predicates() {
			rel := db.Relation(pred)
			for col := 0; col < rel.Arity(); col++ {
				if x, ok := rel.ColumnIndex(col); ok {
					out[x] = append(out[x], fmt.Sprintf("db%d.%s.%d", i, pred, col))
				}
			}
		}
	}
	return out
}

// TestPointExecBuildsTwoIndexes pins what a served engine in the shape of
// the repo benchmark's point_exec workload indexes: after one prepared
// exec, exactly two column indexes exist across every holder of its
// relations — the caller's base, the maintainer's database and both
// serving sides — the join column of r the materialization probed, and the
// column v.K the exec probes, built once for the maintainer's v and both
// sides, which share its tables. Every other column, probed by nothing, is
// never indexed. A caller's base that is not served gains no index at all;
// one that is served (the benchmark serves its base) holds the one the
// materialization built, shared with the maintainer.
func TestPointExecBuildsTwoIndexes(t *testing.T) {
	for _, servedBase := range []bool{false, true} {
		t.Run(fmt.Sprint("served base=", servedBase), func(t *testing.T) {
			const nR, nZ = 400, 200
			// base is the engine's; oracle, which shares nothing with it,
			// the reference evaluator's.
			base, oracle := storage.NewDatabase(), storage.NewDatabase()
			insert := func(pred string, tu storage.Tuple) {
				base.Insert(pred, tu)
				oracle.Insert(pred, tu)
			}
			shape := rand.New(rand.NewSource(1995))
			for i := 0; i < nR; i++ {
				insert("r", storage.Tuple{fmt.Sprintf("k%d", i), fmt.Sprintf("z%d", shape.Intn(nZ))})
			}
			for j := 0; j < nZ; j++ {
				y := shape.Intn(nZ)
				insert("s", storage.Tuple{fmt.Sprintf("z%d", j), fmt.Sprintf("y%d", y)})
				insert("s", storage.Tuple{fmt.Sprintf("z%d", j), fmt.Sprintf("y%d", y+1)})
			}
			if servedBase {
				base.BuildIndexes()
			}
			views, err := cq.ParseViews("v(K,Y) :- r(K,Z), s(Z,Y).")
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewFromBase(base, views, Options{Strategy: Auto, LiveUpdates: true})
			if err != nil {
				t.Fatal(err)
			}
			pq, err := e.Prepare(cq.MustParseQuery("q(Y) :- r(k0,Z), s(Z,Y)"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := pq.Exec("k7")
			if err != nil {
				t.Fatal(err)
			}
			if want := datalog.EvalQueryNaive(oracle, cq.MustParseQuery("q(Y) :- r(k7,Z), s(Z,Y)")); !storage.TuplesEqual(got, want) {
				t.Fatalf("exec = %v, want %v", got, want)
			}
			l := e.live
			built := builtIndexes(base, l.maint.Database(), l.sides[0], l.sides[1])
			// Each index is named by the columns holding it, without the
			// holder: one index on the join column of the base relation
			// the materialization probed, one on v.K.
			var names []string
			for _, holders := range built {
				cols := make([]string, len(holders))
				for i, h := range holders {
					cols[i] = h[4:]
				}
				names = append(names, strings.Join(slices.Compact(cols), "+"))
			}
			slices.Sort(names)
			if len(names) != 2 || names[0] != "r.1" && names[0] != "s.0" || names[1] != "v.0" {
				t.Fatalf("indexes built: %v, want one on the join column of r or s and one on v.K", built)
			}
			if !servedBase {
				for x, holders := range built {
					for _, h := range holders {
						if h[:4] == "db0." {
							t.Fatalf("the caller's unserved base holds index %p (%v)", x, holders)
						}
					}
				}
			}
		})
	}
}

// TestFirstProbeDuringBatchRace: readers probe columns of the active side
// for the first time — each template below probes another column, and a
// batch leaves the side it wrote with only the indexes it copied — while
// batches run, on engines fresh enough that nothing has probed them yet.
// Under the race detector nothing races, and every answer is the one
// before or the one after the batch in flight.
func TestFirstProbeDuringBatchRace(t *testing.T) {
	base, views := testBase(t)
	queries := []*cq.Query{
		cq.MustParseQuery("q(Y) :- r(a,Z), s(Z,Y)"),
		cq.MustParseQuery("q(X) :- r(X,Z), s(Z,y)"),
		cq.MustParseQuery("q(X) :- r(X,m)"),
		cq.MustParseQuery("q(Z) :- r(b,Z)"),
		cq.MustParseQuery("q(Y) :- s(m,Y)"),
		cq.MustParseQuery("q(Z) :- s(Z,x)"),
		cq.MustParseQuery("q(A) :- t(A)"),
	}
	fact := map[string][]storage.Tuple{"r": {{"c", "m"}}, "s": {{"m", "w"}}}
	// states[k] holds each query's answer after k batches: even counts
	// lack the fact, odd ones hold it.
	var states [2][][]storage.Tuple
	for k := range states {
		db := base.Clone()
		if k == 1 {
			for pred, ts := range fact {
				for _, tu := range ts {
					db.Insert(pred, tu)
				}
			}
		}
		for _, q := range queries {
			states[k] = append(states[k], datalog.EvalQueryNaive(db, q))
		}
	}
	const trials, batches = 10, 6
	for trial := 0; trial < trials; trial++ {
		e, err := NewFromBase(base, views, Options{LiveUpdates: true})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		stop := make(chan struct{})
		for g := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					got, err := e.Answer(queries[g])
					if err != nil {
						t.Error(err)
						return
					}
					if !storage.TuplesEqual(got, states[0][g]) && !storage.TuplesEqual(got, states[1][g]) {
						t.Errorf("%s answered %v: neither %v nor %v", queries[g], got, states[0][g], states[1][g])
						return
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		close(start)
		for k := 0; k < batches; k++ {
			ins, del := fact, map[string][]storage.Tuple(nil)
			if k%2 == 1 {
				ins, del = nil, fact
			}
			if err := e.ApplyUpdate(ins, del); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		wg.Wait()
		checkSides(t, e)
		for g, q := range queries {
			if got := mustAnswer(t, e, q); !storage.TuplesEqual(got, states[0][g]) {
				t.Fatalf("trial %d: after %d batches %s = %v, want %v", trial, batches, q, got, states[0][g])
			}
		}
	}
}
