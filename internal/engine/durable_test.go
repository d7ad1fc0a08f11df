package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/storage"
)

// durOpts returns live-engine options rooted at a test data dir. WALNoSync
// keeps the suite fast; the bytes still reach the OS, which is all the
// crash-simulation tests below rely on (they drop the engine, they do not
// kill the process).
func durOpts(dir string) Options {
	return Options{
		LiveUpdates:      true,
		DataDir:          dir,
		WALNoSync:        true,
		SnapshotWALBytes: -1, // no background checkpoints unless a test wants them
	}
}

func mustAnswer(t *testing.T, e *Engine, q *cq.Query) []storage.Tuple {
	t.Helper()
	rows, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestDurableRecoveryAfterClose(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")

	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"s": {{"n", "z"}}}, map[string][]storage.Tuple{"r": {{"a", "m"}}}); err != nil {
		t.Fatal(err)
	}
	want := mustAnswer(t, e, q)
	st := e.Stats().Durable
	if !st.Enabled || st.LSN != 2 || st.Snapshots != 1 {
		t.Fatalf("pre-close durable stats = %+v, want enabled, lsn 2, one boot snapshot", st)
	}
	// /v1/stats encodes these as one flat object: the store's counters sit
	// beside the engine's own fields.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	const keys = "ColdStart Enabled Failed LSN RecoveredBatches RecoveredTuples ReplayTime SnapshotBytes SnapshotLSN SnapshotTime Snapshots StaleRebuild WALAppendTime WALAppends WALBytes"
	if got := strings.Join(slices.Sorted(maps.Keys(fields)), " "); got != keys {
		t.Fatalf("durable stats encode the keys %s, want %s", got, keys)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// A graceful close checkpoints, so the reopen must come entirely from
	// the snapshot: no WAL batches to replay.
	re, err := NewFromBase(nil, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := mustAnswer(t, re, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("recovered answers %v, want %v", got, want)
	}
	st = re.Stats().Durable
	if st.RecoveredBatches != 0 || st.RecoveredTuples == 0 || st.StaleRebuild || st.ColdStart <= 0 {
		t.Fatalf("recovery stats = %+v, want cold start from snapshot with zero replayed batches", st)
	}
	// Mutations keep working after recovery, and the LSN keeps rising from
	// the snapshot's position.
	if err := re.ApplyUpdate(map[string][]storage.Tuple{"r": {{"d", "n"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Durable.LSN; got != 3 {
		t.Fatalf("post-recovery LSN = %d, want 3", got)
	}
}

func TestDurableCrashRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	shadow := base.Clone()
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")

	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	batches := []struct {
		ins, del map[string][]storage.Tuple
	}{
		{ins: map[string][]storage.Tuple{"r": {{"c", "m"}, {"c", "n"}}}},
		{del: map[string][]storage.Tuple{"s": {{"n", "y"}}}},
		{ins: map[string][]storage.Tuple{"s": {{"n", "w"}}}, del: map[string][]storage.Tuple{"r": {{"b", "n"}}}},
	}
	for _, b := range batches {
		if err := e.ApplyUpdate(b.ins, b.del); err != nil {
			t.Fatal(err)
		}
		for pred, tuples := range b.del {
			for _, tup := range tuples {
				shadow.Remove(pred, tup)
			}
		}
		for pred, tuples := range b.ins {
			for _, tup := range tuples {
				shadow.Insert(pred, tup)
			}
		}
	}
	// Crash: the engine is dropped without Close — no shutdown checkpoint,
	// the batches exist only in the WAL behind the boot snapshot.

	re, err := NewFromBase(nil, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	fresh, err := NewFromBase(shadow, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustAnswer(t, re, q), mustAnswer(t, fresh, q); !storage.TuplesEqual(got, want) {
		t.Fatalf("crash-recovered answers %v, want %v", got, want)
	}
	st := re.Stats().Durable
	if st.RecoveredBatches != len(batches) || st.LSN != uint64(len(batches)) {
		t.Fatalf("recovery stats = %+v, want %d replayed batches", st, len(batches))
	}
}

// TestDurableCrashDifferential is the randomized acceptance test: random
// mixed batches, a simulated crash at a random point (engine dropped, no
// checkpoint), recovery, and a differential check against an engine built
// fresh from the shadow base that folded exactly the acknowledged batches.
func TestDurableCrashDifferential(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(0xD15C))
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		base, views := testBase(t)
		shadow := base.Clone()
		e, err := NewFromBase(base, views, durOpts(dir))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nBatches := 1 + rng.Intn(6)
		for b := 0; b < nBatches; b++ {
			ins := make(map[string][]storage.Tuple)
			del := make(map[string][]storage.Tuple)
			for i := 0; i < 1+rng.Intn(4); i++ {
				pred, arity := "r", 2
				if rng.Intn(3) == 0 {
					pred = "s"
				}
				tup := storage.Tuple{fmt.Sprintf("a%d", rng.Intn(6)), fmt.Sprintf("m%d", rng.Intn(6))}
				_ = arity
				if rng.Intn(4) == 0 {
					del[pred] = append(del[pred], tup)
				} else {
					ins[pred] = append(ins[pred], tup)
				}
			}
			if err := e.ApplyUpdate(ins, del); err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, b, err)
			}
			// Acknowledged: the recovered engine must reflect it.
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
		}
		// Crash (drop without Close), recover, compare.
		re, err := NewFromBase(nil, views, durOpts(dir))
		if err != nil {
			t.Fatalf("trial %d: recover: %v", trial, err)
		}
		fresh, err := NewFromBase(shadow, views, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, want := mustAnswer(t, re, q), mustAnswer(t, fresh, q)
		if !storage.TuplesEqual(got, want) {
			t.Fatalf("trial %d (%d batches): recovered engine diverges\n  got:  %v\n  want: %v", trial, nBatches, got, want)
		}
		if !re.Database().Equal(fresh.Database()) {
			t.Fatalf("trial %d: recovered database diverges:\n%s\nvs\n%s", trial, re.Database().Summary(), fresh.Database().Summary())
		}
		re.Close()
	}
}

func TestDurableStaleFingerprintRebuilds(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen under a different view set: the snapshot's extents are stale,
	// the base facts (including the WAL-covered insert) are not.
	newViews, err := cq.ParseViews(`
		vr(A,B) :- r(A,B).
		vs(A,B) :- s(A,B).
	`)
	if err != nil {
		t.Fatal(err)
	}
	var logbuf strings.Builder
	opt := durOpts(dir)
	opt.Logf = func(format string, args ...any) { fmt.Fprintf(&logbuf, format+"\n", args...) }
	re, err := NewFromBase(nil, newViews, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats().Durable
	if !st.StaleRebuild {
		t.Fatalf("durable stats = %+v, want StaleRebuild", st)
	}
	if !strings.Contains(logbuf.String(), "different view definitions") {
		t.Fatalf("no stale-snapshot warning logged; log:\n%s", logbuf.String())
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Y)")
	got := mustAnswer(t, re, q)
	found := false
	for _, row := range got {
		if row[0] == "c" && row[1] == "m" {
			found = true
		}
	}
	if !found {
		t.Fatalf("WAL-covered base fact lost across stale rebuild: %v", got)
	}
}

// TestDurableStaleRebuildKeepsGivenFacts: a fact given for a view (a base
// fact named like it) is base data, so a stale-snapshot rebuild under
// changed view definitions serves the same extent a fresh engine over the
// same base does.
func TestDurableStaleRebuildKeepsGivenFacts(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	if err := base.Insert("v", storage.Tuple{"given", "fact"}); err != nil {
		t.Fatal(err)
	}
	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	changed := append(views, cq.MustParseQuery("w(A) :- r(A,B)"))
	re, err := NewFromBase(nil, changed, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Stats().Durable.StaleRebuild {
		t.Fatal("changed view definitions did not rebuild")
	}
	fresh, err := NewFromBase(base, changed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := re.Database().Relation("v").Tuples(), fresh.Database().Relation("v").Tuples()
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("rebuilt v = %v, fresh engine's v = %v", got, want)
	}
}

// TestDurableLegacyBaseline: testdata/legacy-baseline is a data directory
// written while the maintainer kept the facts given for a view as a manifest
// "baseline" of Tuple.Key strings. Such directories are refused, not
// migrated: under the views that wrote it and under changed ones (which
// would otherwise take the stale-rebuild path), opening it fails with an
// error naming the key and leaves every byte of the directory as it was.
func TestDurableLegacyBaseline(t *testing.T) {
	views := []*cq.Query{cq.MustParseQuery("v(X,Y) :- r(X,Y)")}
	changed := append(views, cq.MustParseQuery("w(A) :- r(A,B)"))
	for _, vs := range [][]*cq.Query{views, changed} {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS("testdata/legacy-baseline")); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		e, err := NewFromBase(nil, vs, durOpts(dir))
		if err == nil {
			e.Close()
			t.Fatalf("views %v: a data directory with a legacy baseline opened", vs)
		}
		if !strings.Contains(err.Error(), `"baseline"`) {
			t.Fatalf("views %v: error %v does not name the baseline key", vs, err)
		}
		if after := dirBytes(t, dir); !maps.Equal(before, after) {
			t.Fatalf("views %v: the refused directory changed: %d files before, %d after", vs, len(before), len(after))
		}
	}
}

// dirBytes maps every file under dir to its contents, and every directory
// (its path ending in a slash) to nothing.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			files[path+"/"] = ""
			return nil
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDurableFailStop: a batch whose WAL append fails surfaces as
// ErrDurability, is undone by its journal on the side the maintainer wrote
// — the maintainer's whole database, base relations included, is equal to
// its pre-batch state — and wedges the engine, while reads keep serving
// the last published state. Under AllowPartial the sides serve the base
// relations too, and the failed batch creates a base relation and
// re-derives a DRed survivor.
func TestDurableFailStop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		partial bool
		// setup is a logged batch before the sabotage; ins and del the
		// batch whose append fails.
		setup    map[string][]storage.Tuple
		ins, del map[string][]storage.Tuple
	}{
		// The batch retracts r(a,m)'s extent tuples and derives r(zz,m)'s.
		{
			name: "extents",
			ins:  map[string][]storage.Tuple{"r": {{"zz", "m"}}},
			del:  map[string][]storage.Tuple{"r": {{"a", "m"}}},
		},
		// r(a,k), s(k,x) give v(a,x) a second derivation, so deleting
		// s(k,x) over-deletes v(a,x) and re-derives it through r(a,m),
		// s(m,x); u is a base relation the batch creates.
		{
			name:    "partial",
			partial: true,
			setup:   map[string][]storage.Tuple{"r": {{"a", "k"}}, "s": {{"k", "x"}}},
			ins:     map[string][]storage.Tuple{"r": {{"zz", "m"}}, "u": {{"new"}}},
			del:     map[string][]storage.Tuple{"s": {{"k", "x"}}, "r": {{"b", "n"}}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base, views := testBase(t)
			opt := durOpts(dir)
			opt.AllowPartial = tc.partial
			e, err := NewFromBase(base, views, opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				if err := e.ApplyUpdate(tc.setup, nil); err != nil {
					t.Fatal(err)
				}
			}
			if (e.live.sides[0].Relation("r") != nil) != tc.partial {
				t.Fatalf("AllowPartial %v: the sides serve r: %v", tc.partial, !tc.partial)
			}
			want := mustAnswer(t, e, cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"))
			sides := [2]*storage.Database{e.live.sides[0].Clone(), e.live.sides[1].Clone()}
			maint := e.live.maint.Database().Clone()

			// Sabotage the log: closing the store underneath the engine
			// makes every later append fail.
			if err := e.dur.store.Close(); err != nil {
				t.Fatal(err)
			}
			uerr := e.ApplyUpdate(tc.ins, tc.del)
			if !errors.Is(uerr, ErrDurability) {
				t.Fatalf("update after WAL failure returned %v, want ErrDurability", uerr)
			}
			if code := ErrorCode(uerr); code != CodeDurability {
				t.Fatalf("ErrorCode = %q, want %q", code, CodeDurability)
			}
			for i, side := range e.live.sides {
				if !side.Equal(sides[i]) {
					t.Fatalf("side %d changed by an unlogged batch:\n%s\nvs\n%s", i, side.Summary(), sides[i].Summary())
				}
			}
			m := e.live.maint.Database()
			if r := m.Relation("r"); r.Contains(storage.Tuple{"zz", "m"}) || !r.Contains(storage.Tuple{"a", "m"}) {
				t.Fatal("maintainer kept the base changes of an unlogged batch")
			}
			if !m.Equal(maint) {
				t.Fatalf("maintainer's database changed by an unlogged batch:\n%s\nvs\n%s", m.Summary(), maint.Summary())
			}
			got := mustAnswer(t, e, cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"))
			if !storage.TuplesEqual(got, want) {
				t.Fatalf("reads changed after failed update: %v vs %v", got, want)
			}
			// The engine is wedged: the next batch is refused without
			// touching either side.
			if err := e.ApplyUpdate(tc.ins, tc.del); !errors.Is(err, ErrDurability) {
				t.Fatalf("batch after a WAL failure returned %v, want ErrDurability", err)
			}
			checkSides(t, e)
			for i, side := range e.live.sides {
				if !side.Equal(sides[i]) {
					t.Fatalf("side %d changed by a refused batch", i)
				}
			}
			if !m.Equal(maint) {
				t.Fatal("maintainer's database changed by a refused batch")
			}
		})
	}
}

func TestDurableCheckpointThreshold(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	opt := durOpts(dir)
	opt.SnapshotWALBytes = 1 // every batch crosses the threshold
	e, err := NewFromBase(base, views, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats().Durable
		if st.Snapshots >= 2 && st.SnapshotLSN == st.LSN {
			break // boot snapshot + threshold-triggered one
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpoint never caught up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDurableExplicitCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ApplyUpdate(map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats().Durable
	if st.Snapshots != 2 || st.SnapshotLSN != st.LSN {
		t.Fatalf("after Checkpoint: %+v, want snapshot at LSN %d", st, st.LSN)
	}
}

// TestDurableFrozenStrategies covers DataDir without LiveUpdates for every
// strategy: the engine snapshots its materialized state at first boot and
// serves identical answers on the second.
func TestDurableFrozenStrategies(t *testing.T) {
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for _, strat := range Strategies() {
		dir := t.TempDir()
		base, views := testBase(t)
		opt := Options{Strategy: strat, DataDir: dir, WALNoSync: true}
		e, err := NewFromBase(base, views, opt)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		want := mustAnswer(t, e, q)
		if err := e.Close(); err != nil {
			t.Fatalf("%s: close: %v", strat, err)
		}
		re, err := NewFromBase(nil, views, opt)
		if err != nil {
			t.Fatalf("%s: reopen: %v", strat, err)
		}
		if got := mustAnswer(t, re, q); !storage.TuplesEqual(got, want) {
			t.Fatalf("%s: recovered answers %v, want %v", strat, got, want)
		}
		st := re.Stats().Durable
		if st.RecoveredTuples == 0 {
			t.Fatalf("%s: second boot did not load the snapshot: %+v", strat, st)
		}
		re.Close()
	}
}

func TestDurableCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	base, views := testBase(t)
	e, err := NewFromBase(base, views, durOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// A memory-only engine's Close is a no-op.
	mem, err := NewFromBase(testBaseDB(t), views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("memory-only Close: %v", err)
	}
}

func testBaseDB(t *testing.T) *storage.Database {
	t.Helper()
	db, _ := testBase(t)
	return db
}

// TestViewsFingerprintGolden pins the view-set fingerprint every data
// directory stores: a change would send each existing directory through the
// stale-view rebuild on its next boot. The view set and its key are the
// "view" and "views" lines of the cq package's fingerprint golden file.
func TestViewsFingerprintGolden(t *testing.T) {
	data, err := os.ReadFile("../cq/testdata/fingerprints.golden")
	if err != nil {
		t.Fatal(err)
	}
	var views []*cq.Query
	want := ""
	for _, line := range strings.Split(string(data), "\n") {
		kind, rest, _ := strings.Cut(line, "\t")
		switch kind {
		case "view":
			views = append(views, cq.MustParseQuery(rest))
		case "views":
			want = rest
		}
	}
	if len(views) == 0 || want == "" {
		t.Fatal("golden file has no view set")
	}
	if got := viewsFingerprint(views); got != want {
		t.Fatalf("viewsFingerprint = %s, golden %s", got, want)
	}
}
