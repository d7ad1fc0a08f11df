package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestLiveEngineBasics: inserts flow into the extents, answers update,
// cached plans survive (the second Answer is a cache hit, not a re-plan),
// and the update counters surface in Stats.
func TestLiveEngineBasics(t *testing.T) {
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

	// r(c,n) joins the existing s(n,y).
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"c", "n"}}}, nil); err != nil {
		t.Fatal(err)
	}
	after, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 {
		t.Fatalf("post-insert answers = %v, want 3", after)
	}
	// The new answer came through the maintained v extent.
	if !e.Database().Relation("v").Contains(storage.Tuple{"c", "y"}) {
		t.Fatal("extent v not maintained")
	}

	// A multi-predicate batch whose join halves arrive together.
	err = e.ApplyUpdate(map[string][]storage.Tuple{
		"r": {{"d", "o"}},
		"s": {{"o", "z"}, {"n", "y"}}, // second tuple is a duplicate
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	final, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 4 {
		t.Fatalf("final answers = %v, want 4", final)
	}

	st := e.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1 — plans must survive updates", st.Hits, st.Misses)
	}
	if st.UpdateBatches != 2 {
		t.Fatalf("UpdateBatches = %d, want 2", st.UpdateBatches)
	}
	if st.UpdateTuples != 3 { // r(c,n), r(d,o), s(o,z); the duplicate does not count
		t.Fatalf("UpdateTuples = %d, want 3", st.UpdateTuples)
	}
	if st.DeltaDerived == 0 {
		t.Fatalf("DeltaDerived = 0, want maintained extent tuples")
	}
	if st.MaintainTime <= 0 {
		t.Fatalf("MaintainTime = %v", st.MaintainTime)
	}

	// Inserting into a view extent is rejected.
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"v": {{"x", "y"}}}, nil); err == nil {
		t.Fatal("insert into view extent accepted")
	}
}

// TestLiveEngineAllStrategies: after a stream of batches, every strategy's
// live engine answers exactly like an engine rebuilt from the accumulated
// base.
func TestLiveEngineAllStrategies(t *testing.T) {
	base, views := testBase(t)
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	batches := []map[string][]storage.Tuple{
		{"r": {{"c", "n"}, {"c", "m"}}},
		{"s": {{"m", "w"}}, "t": {{"n"}}},
		{"r": {{"e", "p"}}, "s": {{"p", "u"}}},
	}
	for _, strat := range Strategies() {
		live, err := NewFromBase(base, views, Options{Strategy: strat, LiveUpdates: true})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		shadow := base.Clone()
		for bi, batch := range batches {
			if err := live.ApplyUpdate(batch, nil); err != nil {
				t.Fatalf("%s batch %d: %v", strat, bi, err)
			}
			for pred, tuples := range batch {
				for _, tup := range tuples {
					if err := shadow.Insert(pred, tup); err != nil {
						t.Fatal(err)
					}
				}
			}
			fresh, err := NewFromBase(shadow, views, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%s batch %d: rebuild: %v", strat, bi, err)
			}
			got, err := live.Answer(q)
			if err != nil {
				t.Fatalf("%s batch %d: live answer: %v", strat, bi, err)
			}
			want, err := fresh.Answer(q)
			if err != nil {
				t.Fatalf("%s batch %d: fresh answer: %v", strat, bi, err)
			}
			if !storage.TuplesEqual(got, want) {
				t.Fatalf("%s batch %d: live %v, rebuilt %v", strat, bi, got, want)
			}
		}
		for _, pred := range []string{"r", "s", "t"} {
			if live.Database().Relation(pred) != nil {
				t.Fatalf("%s: live engine serves base relation %s without AllowPartial", strat, pred)
			}
		}
	}
}

func TestLiveEngineErrors(t *testing.T) {
	base, views := testBase(t)
	static, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := static.ApplyUpdate(map[string][]storage.Tuple{"r": {{"z", "z"}}}, nil); err != ErrNotLive {
		t.Fatalf("static insert err = %v, want ErrNotLive", err)
	}
	live, err := NewFromBase(base, views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	// Arity mismatch leaves everything unchanged.
	if err := live.ApplyUpdate(map[string][]storage.Tuple{"r": {{"only-one"}}}, nil); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if got, _ := live.Answer(cq.MustParseQuery("q3(X,Y) :- r(X,Y)")); len(got) != 2 {
		t.Fatalf("failed batch changed answers: %v", got)
	}
}

// TestLiveEngineDifferential drives randomized update streams interleaved
// with queries through live engines and cross-checks every answer against
// an engine rebuilt from scratch on the accumulated base.
func TestLiveEngineDifferential(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(0x11FE))
	const chainLen = 3
	q := workload.ChainQuery(chainLen, true)
	strategies := Strategies()
	for trial := 0; trial < trials; trial++ {
		base := workload.ChainDatabase(rng, chainLen, true, 30+rng.Intn(60), 25)
		views := workload.ChainViews(rng, chainLen, true, workload.DefaultViewSpec(3+rng.Intn(3)))
		strat := strategies[trial%len(strategies)]
		live, err := NewFromBase(base, views, Options{Strategy: strat, LiveUpdates: true})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, strat, err)
		}
		shadow := base.Clone()
		for batch := 0; batch < 1+rng.Intn(4); batch++ {
			upd := make(map[string][]storage.Tuple)
			for i := 0; i < 1+rng.Intn(6); i++ {
				pred := fmt.Sprintf("p%d", 1+rng.Intn(chainLen))
				tup := storage.Tuple{fmt.Sprintf("c%d", rng.Intn(25)), fmt.Sprintf("c%d", rng.Intn(25))}
				upd[pred] = append(upd[pred], tup)
				shadow.Insert(pred, tup)
			}
			if err := live.ApplyUpdate(upd, nil); err != nil {
				t.Fatalf("trial %d (%s) batch %d: %v", trial, strat, batch, err)
			}
			checkSides(t, live)
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
				t.Fatalf("trial %d (%s) batch %d: live answers diverge from rebuilt engine\n  live:  %v\n  fresh: %v",
					trial, strat, batch, got, want)
			}
			// Extents themselves must match a full re-materialization.
			for _, v := range views {
				lr, fr := live.Database().Relation(v.Name()), fresh.Database().Relation(v.Name())
				if !storage.TuplesEqual(lr.Tuples(), fr.Tuples()) {
					t.Fatalf("trial %d (%s) batch %d: extent %s diverges", trial, strat, batch, v.Name())
				}
			}
		}
	}
}

// checkSides pins the left-right invariant of a live engine between
// batches, committed or rolled back: both serving sides hold equal tuple
// sets for every relation, they share no relation, and every relation a
// side serves is, in the maintainer's database, one of the two sides' own
// relations — the served state exists in at most two physical copies, not
// three (one until a batch writes it: TestSidesShareUntilFirstBatch).
func checkSides(t *testing.T, e *Engine) {
	t.Helper()
	l := e.live
	l.updateMu.Lock()
	defer l.updateMu.Unlock()
	if !l.sides[0].Equal(l.sides[1]) {
		t.Fatalf("serving sides diverge:\n%s\nvs\n%s", l.sides[0].Summary(), l.sides[1].Summary())
	}
	maint := l.maint.Database()
	for _, pred := range l.sides[0].Predicates() {
		s0, s1 := l.sides[0].Relation(pred), l.sides[1].Relation(pred)
		if s0 == s1 {
			t.Fatalf("serving sides share relation %s", pred)
		}
		if m := maint.Relation(pred); m != s0 && m != s1 {
			t.Fatalf("maintainer's relation %s is neither side's: a third copy", pred)
		}
	}
}

// TestSidesShareUntilFirstBatch: the standby serving side is a
// copy-on-write clone of the active one, so until the first batch the two
// hold one set of tables — one tuple array, and one list of column indexes,
// so a column either side probes first is indexed once, for both — and the
// maintainer shares the caller's base without writing
// it: the base stays equal to what it held before construction, and a
// write the caller makes to it afterwards changes no answer. The first
// batch gives every relation it writes tables of its own on each side, and
// both sides then hold what the reference evaluator derives. Both serving
// layouts run: extents only, and extents beside the base relations.
func TestSidesShareUntilFirstBatch(t *testing.T) {
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for _, partial := range []bool{false, true} {
		t.Run(fmt.Sprint("partial=", partial), func(t *testing.T) {
			base, views := testBase(t)
			shadow, _ := testBase(t) // what base holds, sharing nothing with it
			e, err := NewFromBase(base, views, Options{LiveUpdates: true, AllowPartial: partial})
			if err != nil {
				t.Fatal(err)
			}
			l := e.live
			// Side 0's first probe of a column builds its index once for
			// both sides, which hold one set of tables. Nothing has probed
			// an extent yet; the materialization probed the base relations'
			// join columns.
			shared := func(pred string) bool {
				s0, s1 := l.sides[0].Relation(pred), l.sides[1].Relation(pred)
				x0, ok0 := s0.ProbeIndex(0)
				x1, ok1 := s1.ColumnIndex(0)
				return ok0 && ok1 && x0 == x1 && (s0.Len() == 0 || &s0.Tuples()[0] == &s1.Tuples()[0])
			}
			for _, pred := range l.sides[0].Predicates() {
				if _, built := l.sides[1].Relation(pred).ColumnIndex(0); built && l.maint.IsView(pred) {
					t.Fatalf("the extent %s was indexed before any probe", pred)
				}
				if !shared(pred) {
					t.Fatalf("before any batch the serving sides hold two copies of %s", pred)
				}
			}
			if l.sides[0].Relation("r") == nil == partial {
				t.Fatalf("partial=%v: side 0 serves r: %v", partial, l.sides[0].Relation("r") != nil)
			}
			if !base.Equal(shadow) {
				t.Fatal("construction changed the caller's base")
			}
			answers := mustAnswer(t, e, q)
			base.Insert("r", storage.Tuple{"zz", "m"})
			base.Remove("s", storage.Tuple{"n", "y"})
			if got := mustAnswer(t, e, q); !storage.TuplesEqual(got, answers) {
				t.Fatalf("a write to the caller's base changed the answers: %v, was %v", got, answers)
			}

			ins := map[string][]storage.Tuple{"r": {{"c", "n"}}, "s": {{"m", "w"}}}
			del := map[string][]storage.Tuple{"r": {{"a", "m"}}}
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
					shadow.Insert(pred, tu)
				}
			}
			checkSides(t, e)
			for _, pred := range []string{"v", "vr", "vs"} {
				if shared(pred) {
					t.Fatalf("after a batch that wrote %s the serving sides still share its tables", pred)
				}
			}
			for i, side := range l.sides {
				for _, v := range views {
					if got, want := side.Relation(v.Name()).Tuples(), datalog.EvalQueryNaive(shadow, v); !storage.TuplesEqual(got, want) {
						t.Fatalf("side %d: extent %s = %v, want %v", i, v.Name(), got, want)
					}
				}
			}
			if got, want := mustAnswer(t, e, q), datalog.EvalQueryNaive(shadow, q); !storage.TuplesEqual(got, want) {
				t.Fatalf("answers %v, want %v", got, want)
			}
		})
	}
}

// TestReplayFailureWedges: a committed batch that cannot be replayed onto
// the standby side — an error or a panic partway through — leaves that side
// rolled back to its pre-batch state and wedges mutations, since no batch
// may be maintained onto a side that missed one, while reads keep serving
// the active side.
func TestReplayFailureWedges(t *testing.T) {
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for _, tc := range []struct {
		name string
		// bad journals a batch over a database of its own that the standby
		// side cannot take; v is a row the side holds.
		bad func(v storage.Tuple) *storage.Journal
	}{
		// One genuine retraction, then an insertion of the wrong arity: v
		// is removed, and the batch creates v anew, one column wide.
		{"error", func(v storage.Tuple) *storage.Journal {
			src := storage.NewDatabase()
			src.Insert("v", v)
			j := storage.NewJournal(src)
			j.RemoveAll("v", []storage.Tuple{v})
			src.Drop("v")
			j.MarkInserts()
			src.Insert("v", storage.Tuple{"only-one"})
			return j
		}},
		// A retraction of the wrong arity panics in storage.
		{"panic", func(storage.Tuple) *storage.Journal {
			src := storage.NewDatabase()
			src.Insert("v", storage.Tuple{"only-one"})
			j := storage.NewJournal(src)
			j.RemoveAll("v", []storage.Tuple{{"only-one"}})
			j.MarkInserts()
			return j
		}},
	} {
		base, views := testBase(t)
		e, err := NewFromBase(base, views, Options{LiveUpdates: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"c", "n"}}}, nil); err != nil {
			t.Fatal(err)
		}
		want := mustAnswer(t, e, q)
		l := e.live
		standby := 1 - l.active.Load()
		before := l.sides[standby].Clone()
		bad := tc.bad(l.sides[standby].Relation("v").Tuples()[0].Clone())
		func() {
			defer func() {
				if r := recover(); (r != nil) != (tc.name == "panic") {
					t.Fatalf("%s: recovered %v", tc.name, r)
				}
			}()
			l.updateMu.Lock()
			defer l.updateMu.Unlock()
			if err := l.applySide(standby, bad); !errors.Is(err, ErrInternal) {
				t.Fatalf("%s: replay returned %v, want ErrInternal", tc.name, err)
			}
		}()
		if !l.sides[standby].Equal(before) {
			t.Fatalf("%s: failed replay left the standby side torn:\n%s\nvs\n%s", tc.name, l.sides[standby].Summary(), before.Summary())
		}
		uerr := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"d", "n"}}}, nil)
		if !errors.Is(uerr, ErrInternal) || ErrorCode(uerr) != CodeInternal {
			t.Fatalf("%s: batch after a failed replay returned %v, want a refusal matching ErrInternal", tc.name, uerr)
		}
		checkSides(t, e)
		if got := mustAnswer(t, e, q); !storage.TuplesEqual(got, want) {
			t.Fatalf("%s: reads changed after the refusal: %v vs %v", tc.name, got, want)
		}
	}
}

// TestLiveEngineSnapshotRace runs concurrent Answer calls against a stream of insert-only ApplyUpdate batches. The query is disconnected —
// its answer is the cross product of two separately updated relations —
// so a torn read (one relation pre-batch, the other post-batch) would
// produce an answer set matching no consistent state. A durable engine,
// whose writer holds the maintained side's lock through the WAL append,
// runs the same stream. Run under -race in CI, this also checks the
// snapshot locking itself.
func TestLiveEngineSnapshotRace(t *testing.T) {
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
	// Answer = π_X(r) × π_Y(s): each batch grows both factors together.
	q := cq.MustParseQuery("q(X,Y) :- r(X,U), s(W,Y)")

	const nBatches = 6
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

	for _, opt := range []Options{
		{Strategy: EquivalentFirst},
		{Strategy: InverseRules},
		{Strategy: EquivalentFirst, DataDir: t.TempDir(), WALNoSync: true},
	} {
		strat := string(opt.Strategy)
		if opt.DataDir != "" {
			strat += "/durable"
		}
		opt.LiveUpdates = true
		e, err := NewFromBase(base, views, opt)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		// Warm the plan cache before the writers start.
		if ans, err := e.Answer(q); err != nil || matchesState(ans) != 0 {
			t.Fatalf("%s: initial answer %v (err %v)", strat, ans, err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					got, err := e.Answer(q)
					if err != nil {
						t.Errorf("%s reader %d: %v", strat, g, err)
						return
					}
					if matchesState(got) < 0 {
						t.Errorf("%s reader %d: torn answer set (%d tuples): %v", strat, g, len(got), got)
						return
					}
				}
			}(g)
		}
		for k := 1; k <= nBatches; k++ {
			err := e.ApplyUpdate(map[string][]storage.Tuple{
				"r": {{fmt.Sprintf("x%d", k), "k"}},
				"s": {{"k", fmt.Sprintf("y%d", k)}},
			}, nil)
			if err != nil {
				t.Errorf("%s batch %d: %v", strat, k, err)
				break
			}
		}
		close(stop)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		// After the stream drains, readers must see exactly the final state.
		final, err := e.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if matchesState(final) != nBatches {
			t.Fatalf("%s: final state %v, want state %d", strat, final, nBatches)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
