package datalog

import (
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
)

// Race coverage for the compiled fixpoint executor: many goroutines share
// one CompiledProgram and one database. All fixpoint state (delta slices,
// IDB relations, buffers) must be per-call; the shared relations must only
// ever be read. Run with -race (CI does).

func raceProgram(t *testing.T) (*Program, *storage.Database) {
	t.Helper()
	db := storage.NewDatabase()
	for i := 0; i < 40; i++ {
		db.Insert("e", storage.Tuple{node40(i), node40(i + 1)})
	}
	db.Insert("e", storage.Tuple{node40(40), node40(0)}) // cycle
	p := newProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	return p, db
}

func node40(i int) string {
	return "n" + string(rune('A'+i%26)) + string(rune('a'+i/26))
}

// TestCompiledProgramConcurrentFrozen runs concurrent evaluations
// over a frozen database — the engine's serving configuration.
func TestCompiledProgramConcurrentFrozen(t *testing.T) {
	p, db := raceProgram(t)
	db.BuildIndexes()
	cp, err := CompileProgram(p, cost.NewCatalog(db))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cp.EvalRelation(db, "tc", 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, _, err := cp.EvalRelation(db, "tc", 1)
			if err != nil {
				t.Error(err)
				return
			}
			if !storage.TuplesEqual(got, want) {
				t.Errorf("goroutine %d: %d tuples, want %d", g, len(got), len(want))
			}
		}(g)
	}
	wg.Wait()
}

// TestCompiledProgramConcurrentUnfrozen shares an unfrozen database: no
// column indexes exist, ColumnIndex reports ok=false, and every EDB access
// degrades to a scan — without ever building (i.e. mutating) an index.
func TestCompiledProgramConcurrentUnfrozen(t *testing.T) {
	p, db := raceProgram(t)
	cp, err := CompileProgram(p, cost.NewRowCatalog(db))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cp.EvalRelation(db, "tc", 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, _, err := cp.EvalRelation(db, "tc", 1)
			if err != nil {
				t.Error(err)
				return
			}
			if !storage.TuplesEqual(got, want) {
				t.Errorf("goroutine %d: %d tuples, want %d", g, len(got), len(want))
			}
		}(g)
	}
	wg.Wait()
	assertUnindexed(t, db.Relation("e"), "the executor over a shared database")
}
