package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/storage"
)

// TestEngineDeleteBasics: retractions flow out of the extents, answers
// shrink, mixed batches replay deletions before insertions, and the delete
// counters surface in Stats.
func TestEngineDeleteBasics(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	before, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 {
		t.Fatalf("initial answers = %v", before)
	}

	// Deleting r(a,m) starves v(a,x) and vr(a,m).
	if err := e.ApplyUpdate(nil, map[string][]storage.Tuple{"r": {{"a", "m"}}}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("post-delete answers = %v, want 1", after)
	}
	if e.Database().Relation("v").Contains(storage.Tuple{"a", "x"}) {
		t.Fatal("extent v not retracted")
	}
	if e.Database().Relation("r") != nil {
		t.Fatal("base relation r served without AllowPartial")
	}

	// Mixed batch: re-insert r(a,m), delete s(n,y) — the r answer returns,
	// the s one goes.
	err = e.ApplyUpdate(
		map[string][]storage.Tuple{"r": {{"a", "m"}}},
		map[string][]storage.Tuple{"s": {{"n", "y"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	final, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 1 || final[0].Key() != (storage.Tuple{"a", "x"}).Key() {
		t.Fatalf("post-mixed answers = %v, want [a x]", final)
	}

	// Deleting an absent tuple is a no-op, not an error.
	if err := e.ApplyUpdate(nil, map[string][]storage.Tuple{"r": {{"zz", "zz"}}}); err != nil {
		t.Fatal(err)
	}
	// Deleting from a view extent is rejected.
	if err := e.ApplyUpdate(nil, map[string][]storage.Tuple{"v": {{"a", "x"}}}); err == nil {
		t.Fatal("delete from view extent accepted")
	}

	st := e.Stats()
	if st.UpdateDeleted != 2 { // r(a,m), s(n,y); the no-op does not count
		t.Fatalf("UpdateDeleted = %d, want 2", st.UpdateDeleted)
	}
	// DeltaDerived counts every row DRed's rounds derive, the over-deleted
	// ones included: v+vr over-deleted by the delete, vs+v over-deleted by
	// the mixed batch and vr+v derived by its insert phase.
	if st.DeltaRetracted != 4 || st.DeltaDerived != 6 { // v+vr for the delete, vs+v for the mixed batch
		t.Fatalf("DeltaRetracted = %d and DeltaDerived = %d, want 4 and 6", st.DeltaRetracted, st.DeltaDerived)
	}

	// A DRed survivor: r(c,m) and r(c,k) both join into v(c,x), so deleting
	// s(k,x) over-deletes vs(k,x) and v(c,x), and re-derives v(c,x) through
	// r(c,m), s(m,x). Only vs(k,x) is retracted.
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"c", "m"}, {"c", "k"}}, "s": {{"k", "x"}}}, nil); err != nil {
		t.Fatal(err)
	}
	mid := e.Stats()
	if got := mid.DeltaDerived - st.DeltaDerived; got != 4 { // vr(c,m), vr(c,k), vs(k,x), v(c,x)
		t.Fatalf("insert batch derived %d extent rows, want 4", got)
	}
	if err := e.ApplyUpdate(nil, map[string][]storage.Tuple{"s": {{"k", "x"}}}); err != nil {
		t.Fatal(err)
	}
	end := e.Stats()
	if got := end.DeltaRetracted - mid.DeltaRetracted; got != 1 {
		t.Fatalf("survivor batch retracted %d extent rows, want 1 (vs(k,x))", got)
	}
	if got := end.DeltaDerived - mid.DeltaDerived; got != 2 { // vs(k,x) and v(c,x) over-deleted
		t.Fatalf("survivor batch derived %d extent rows, want 2", got)
	}
	if !e.Database().Relation("v").Contains(storage.Tuple{"c", "x"}) || e.Database().Relation("vs").Contains(storage.Tuple{"k", "x"}) {
		t.Fatal("survivor batch: v(c,x) must survive and vs(k,x) go")
	}
	checkSides(t, e)

	// A static engine rejects deletes like it rejects inserts.
	static, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := static.ApplyUpdate(nil, map[string][]storage.Tuple{"r": {{"a", "m"}}}); err != ErrNotLive {
		t.Fatalf("static delete err = %v, want ErrNotLive", err)
	}
}

// TestEngineUpdateDifferential drives randomized mixed insert/delete
// streams — including delete-heavy batches — through live engines across
// every strategy and worker count, and cross-checks every
// answer and every extent against an engine rebuilt from the surviving
// base.
func TestEngineUpdateDifferential(t *testing.T) {
	trials := 48
	if testing.Short() {
		trials = 12
	}
	rng := rand.New(rand.NewSource(0xDE1E7E5))
	strategies := Strategies()
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")

	for trial := 0; trial < trials; trial++ {
		base, views := testBase(t)
		for i := 0; i < 5+rng.Intn(25); i++ {
			base.Insert("r", storage.Tuple{fmt.Sprintf("a%d", rng.Intn(8)), fmt.Sprintf("m%d", rng.Intn(8))})
			base.Insert("s", storage.Tuple{fmt.Sprintf("m%d", rng.Intn(8)), fmt.Sprintf("x%d", rng.Intn(8))})
		}
		strat := strategies[trial%len(strategies)]
		live, err := NewFromBase(base, views, Options{Strategy: strat, LiveUpdates: true})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, strat, err)
		}
		shadow := base.Clone()

		for batch := 0; batch < 2+rng.Intn(3); batch++ {
			ins := make(map[string][]storage.Tuple)
			del := make(map[string][]storage.Tuple)
			// Delete-heavy, insert-only, or mixed.
			kind := rng.Intn(3)
			if kind != 1 {
				for _, pred := range []string{"r", "s"} {
					rel := shadow.Relation(pred)
					if rel == nil || rel.Len() == 0 {
						continue
					}
					tuples := rel.Tuples()
					for i := 0; i < 1+rng.Intn(3); i++ {
						del[pred] = append(del[pred], tuples[rng.Intn(len(tuples))])
					}
				}
			}
			if kind != 0 {
				for i := 0; i < 1+rng.Intn(4); i++ {
					if rng.Intn(2) == 0 {
						ins["r"] = append(ins["r"], storage.Tuple{fmt.Sprintf("a%d", rng.Intn(10)), fmt.Sprintf("m%d", rng.Intn(10))})
					} else {
						ins["s"] = append(ins["s"], storage.Tuple{fmt.Sprintf("m%d", rng.Intn(10)), fmt.Sprintf("x%d", rng.Intn(10))})
					}
				}
			}
			if err := live.ApplyUpdate(ins, del); err != nil {
				t.Fatalf("trial %d (%s) batch %d: %v", trial, strat, batch, err)
			}
			checkSides(t, live)
			for pred, tuples := range del {
				for _, tup := range tuples {
					shadow.Remove(pred, tup)
				}
			}
			for pred, tuples := range ins {
				for _, tup := range tuples {
					shadow.Insert(pred, tup)
				}
			}
			fresh, err := NewFromBase(shadow, views, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("trial %d (%s) batch %d: rebuild: %v", trial, strat, batch, err)
			}
			got, err := live.Answer(q)
			if err != nil {
				t.Fatalf("trial %d (%s) batch %d: live: %v", trial, strat, batch, err)
			}
			want, err := fresh.Answer(q)
			if err != nil {
				t.Fatalf("trial %d (%s) batch %d: fresh: %v", trial, strat, batch, err)
			}
			if !storage.TuplesEqual(got, want) {
				t.Fatalf("trial %d (%s) batch %d: live diverges from re-materialization\n  live:  %v\n  fresh: %v",
					trial, strat, batch, got, want)
			}
			for _, v := range views {
				lr, fr := live.Database().Relation(v.Name()), fresh.Database().Relation(v.Name())
				var lt, ft []storage.Tuple
				if lr != nil {
					lt = lr.Tuples()
				}
				if fr != nil {
					ft = fr.Tuples()
				}
				if !storage.TuplesEqual(lt, ft) {
					t.Fatalf("trial %d (%s) batch %d: extent %s diverges\n  live:  %v\n  fresh: %v",
						trial, strat, batch, v.Name(), lt, ft)
				}
			}
		}
	}
}

// TestEngineDeleteSnapshotRace runs concurrent Answer calls against a
// stream of mixed grow/shrink batches. The answer is the cross product of
// two separately updated relations, so a torn read — one relation with a
// batch's retraction applied, the other without — matches no legal grid
// state. Run under -race in CI this also checks that retractions on a
// serving side stay inside the side's write lock.
func TestEngineDeleteSnapshotRace(t *testing.T) {
	base := storage.NewDatabase()
	base.Insert("r", storage.Tuple{"x0", "k"})
	base.Insert("s", storage.Tuple{"k", "y0"})
	views, err := cq.ParseViews(`
		vr(A,B) :- r(A,B).
		vs(A,B) :- s(A,B).
	`)
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,U), s(W,Y)")

	const nBatches = 5
	// Legal answer sets: state k is {x0..xk} × {y0..yk}.
	states := make([]map[string]bool, nBatches+1)
	for k := 0; k <= nBatches; k++ {
		states[k] = make(map[string]bool)
		for i := 0; i <= k; i++ {
			for j := 0; j <= k; j++ {
				states[k][storage.Tuple{fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", j)}.Key()] = true
			}
		}
	}
	matchesState := func(answers []storage.Tuple) int {
		for k, st := range states {
			if len(answers) != len(st) {
				continue
			}
			ok := true
			for _, a := range answers {
				if !st[a.Key()] {
					ok = false
					break
				}
			}
			if ok {
				return k
			}
		}
		return -1
	}

	e, err := NewFromBase(base, views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if ans, err := e.Answer(q); err != nil || matchesState(ans) != 0 {
		t.Fatalf("initial answer %v (err %v)", ans, err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := e.Answer(q)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if matchesState(got) < 0 {
					t.Errorf("reader %d: torn answer set (%d tuples): %v", g, len(got), got)
					return
				}
			}
		}(g)
	}
	// Grow to the full grid, then shrink back down with atomic
	// delete-pair batches: every intermediate state is a legal grid.
	for k := 1; k <= nBatches; k++ {
		err := e.ApplyUpdate(map[string][]storage.Tuple{
			"r": {{fmt.Sprintf("x%d", k), "k"}},
			"s": {{"k", fmt.Sprintf("y%d", k)}},
		}, nil)
		if err != nil {
			t.Errorf("grow %d: %v", k, err)
			break
		}
	}
	for k := nBatches; k >= 1; k-- {
		err := e.ApplyUpdate(nil, map[string][]storage.Tuple{
			"r": {{fmt.Sprintf("x%d", k), "k"}},
			"s": {{"k", fmt.Sprintf("y%d", k)}},
		})
		if err != nil {
			t.Errorf("shrink %d: %v", k, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	final, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if matchesState(final) != 0 {
		t.Fatalf("final state %v, want state 0", final)
	}
}

// TestEngineDeleteFaultInjection injects cancellations and budget trips
// into mixed insert/delete batches — including mid-retraction — and after
// every fault the live engine must answer exactly like a re-materialization
// from the base plus only the batches that committed: a failed batch rolls
// back both the retractions and the insertions or neither.
func TestEngineDeleteFaultInjection(t *testing.T) {
	trials := 160
	if testing.Short() {
		trials = 40
	}
	rng := rand.New(rand.NewSource(0xDEADDE1))
	strategies := Strategies()
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")

	for trial := 0; trial < trials; trial++ {
		base, views := testBase(t)
		for i := 0; i < rng.Intn(20); i++ {
			base.Insert("r", storage.Tuple{fmt.Sprintf("a%d", rng.Intn(8)), fmt.Sprintf("m%d", rng.Intn(8))})
			base.Insert("s", storage.Tuple{fmt.Sprintf("m%d", rng.Intn(8)), fmt.Sprintf("x%d", rng.Intn(8))})
		}
		strat := strategies[trial%len(strategies)]
		live, err := NewFromBase(base, views, Options{Strategy: strat, LiveUpdates: true})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, strat, err)
		}
		shadow := base.Clone()

		for batch := 0; batch < 1+rng.Intn(3); batch++ {
			ins := make(map[string][]storage.Tuple)
			del := make(map[string][]storage.Tuple)
			for _, pred := range []string{"r", "s"} {
				rel := shadow.Relation(pred)
				if rel == nil || rel.Len() == 0 || rng.Intn(3) == 0 {
					continue
				}
				tuples := rel.Tuples()
				for i := 0; i < 1+rng.Intn(3); i++ {
					del[pred] = append(del[pred], tuples[rng.Intn(len(tuples))])
				}
			}
			for i := 0; i < rng.Intn(4); i++ {
				if rng.Intn(2) == 0 {
					ins["r"] = append(ins["r"], storage.Tuple{fmt.Sprintf("a%d", rng.Intn(10)), fmt.Sprintf("m%d", rng.Intn(10))})
				} else {
					ins["s"] = append(ins["s"], storage.Tuple{fmt.Sprintf("m%d", rng.Intn(10)), fmt.Sprintf("x%d", rng.Intn(10))})
				}
			}

			// Pick a fault to inject into the retraction path: a pre-fired
			// or racing deadline, a tiny derivation budget, or none.
			ctx := context.Background()
			var cancel context.CancelFunc
			var b Budget
			switch rng.Intn(4) {
			case 0: // pre-canceled context: fails before the first removal
				ctx, cancel = context.WithCancel(ctx)
				cancel()
			case 1: // racing deadline, sometimes firing mid-retraction
				b.Deadline = time.Duration(rng.Intn(300)) * time.Microsecond
			case 2: // derivation budget counts retraction work too
				b.MaxDerivedTuples = 1 + rng.Intn(2)
			case 3: // no fault — the batch commits
			}
			err := live.ApplyUpdateBudget(ctx, ins, del, b)
			if cancel != nil {
				cancel()
			}
			switch {
			case err == nil:
				for pred, tuples := range del {
					for _, tup := range tuples {
						shadow.Remove(pred, tup)
					}
				}
				for pred, tuples := range ins {
					for _, tup := range tuples {
						shadow.Insert(pred, tup)
					}
				}
			case errors.Is(err, ErrCanceled), errors.Is(err, ErrBudgetExceeded):
				// Rolled back: the shadow stays as-is.
			default:
				t.Fatalf("trial %d (%s) batch %d: unexpected error type: %v", trial, strat, batch, err)
			}

			fresh, err := NewFromBase(shadow, views, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("trial %d (%s): rebuild: %v", trial, strat, err)
			}
			wantRows, err := fresh.Answer(q)
			if err != nil {
				t.Fatalf("trial %d (%s): rebuilt answer: %v", trial, strat, err)
			}
			gotRows, err := live.Answer(q)
			if err != nil {
				t.Fatalf("trial %d (%s): live answer: %v", trial, strat, err)
			}
			if !storage.TuplesEqual(gotRows, wantRows) {
				t.Fatalf("trial %d (%s) batch %d: live diverges after fault\n  live:  %v\n  fresh: %v",
					trial, strat, batch, gotRows, wantRows)
			}
			for _, v := range views {
				lr, fr := live.Database().Relation(v.Name()), fresh.Database().Relation(v.Name())
				var lt, ft []storage.Tuple
				if lr != nil {
					lt = lr.Tuples()
				}
				if fr != nil {
					ft = fr.Tuples()
				}
				if !storage.TuplesEqual(lt, ft) {
					t.Fatalf("trial %d (%s) batch %d: extent %s diverges after fault", trial, strat, batch, v.Name())
				}
			}
		}
	}
}
