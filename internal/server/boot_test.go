package server

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/storage"
)

// TestBootAtScale boots namespaces from a 200k-tuple base that has no
// column index — the shape storage.ReadDatabase hands cmd/aqvd — live, live
// and durable, and through the durable stale-view rebuild, whose base
// (durable.Store.RecoverBaseFacts) is unindexed too. Materialising the view
// indexes its own probe columns; joined by nested scans, this two-atom view
// takes minutes to build.
func TestBootAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-tuple boot; run without -short")
	}
	const (
		n      = 100_000 // r tuples, and as many s tuples
		budget = 20 * time.Second
	)
	base := storage.NewDatabase()
	for i := 0; i < n; i++ {
		base.Insert("r", storage.Tuple{"k" + strconv.Itoa(i), "m" + strconv.Itoa(i)})
		base.Insert("s", storage.Tuple{"m" + strconv.Itoa(i), "x" + strconv.Itoa(i)})
	}
	for _, pred := range base.Predicates() {
		if _, ok := base.Relation(pred).ColumnIndex(0); ok {
			t.Fatalf("test base relation %s is indexed; the boot must start from an unindexed one", pred)
		}
	}
	views, err := cq.ParseViews("v(A,B) :- r(A,C), s(C,B).")
	if err != nil {
		t.Fatal(err)
	}
	// Another view set: a snapshot written under views is stale under it.
	staleViews, err := cq.ParseViews("v(A,B) :- r(A,C), s(C,B).\nvs(A,B) :- s(A,B).")
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(Y) :- r(k77,Z), s(Z,Y)")

	boot := func(name string, base *storage.Database, views []*cq.Query, cfg Config) *Namespace {
		t.Helper()
		start := time.Now()
		ns, err := NewNamespace(name, base, views, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if took := time.Since(start); took > budget {
			t.Fatalf("%s: boot took %v, budget %v", name, took, budget)
		} else {
			t.Logf("%s: boot %v", name, took)
		}
		rows, err := ns.Engine.Answer(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != 1 || rows[0][0] != "x77" {
			t.Fatalf("%s: answers %v, want [[x77]]", name, rows)
		}
		return ns
	}

	dir := t.TempDir()
	durable := Config{LiveUpdates: true, DataDir: dir, WALNoSync: true}
	for _, step := range []struct {
		name  string
		base  *storage.Database
		views []*cq.Query
		cfg   Config
		stale bool
	}{
		{"live", base, views, Config{LiveUpdates: true}, false},
		{"live-durable", base, views, durable, false},
		{"stale-rebuild", nil, staleViews, durable, true},
	} {
		ns := boot(step.name, step.base, step.views, step.cfg)
		if st := ns.Engine.Stats().Durable; st.StaleRebuild != step.stale {
			t.Fatalf("%s: durable stats = %+v, want StaleRebuild=%v", step.name, st, step.stale)
		}
		if err := ns.Engine.Close(); err != nil {
			t.Fatalf("%s: close: %v", step.name, err)
		}
	}
}
