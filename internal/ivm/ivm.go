// Package ivm incrementally maintains materialized view extents under
// base-fact inserts, deletions, and mixed update batches. A Maintainer
// maintains one database holding the base relations and every view extent
// (Database); each view definition is compiled once into per-EDB-occurrence
// delta plans (datalog.CompileProgramIVM), and an update batch runs one
// semi-naive propagation round per affected occurrence instead of
// re-materializing any extent — work is proportional to the consequences
// of the batch, not to the size of the database.
//
// There is one write verb, ApplyUpdate (ApplyUpdateCtx under a context and
// limits), and it is datalog.ApplyUpdates over the maintainer's database:
// inserts propagate monotonically; deletions are non-monotone and take the
// counting machinery — view sets are flat, so the compiled program tracks
// exact per-derived-tuple derivation counts, built lazily on the first
// deletion, and retracts an extent tuple exactly when its count reaches
// zero. A batch applies its deletions first and is atomic whatever it
// holds.
//
// The Maintainer is the engine's mutation path. The engine does not give it
// extents of its own: before each batch it binds the maintained database to
// the relations of its inactive serving side (storage.Database.Bind), so
// Engine.ApplyUpdate maintains that side in place, and forwards the
// returned deltas to the other side only. The maintainer keeps privately
// just the relations no side serves. It is equally usable standalone for
// applications that keep extents fresh without the serving layer.
//
// A Maintainer is single-writer: calls to ApplyUpdate must be serialized by
// the caller (the engine holds an update mutex). Reads of the maintained
// database may not overlap an ApplyUpdate call.
package ivm

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// Options configures a Maintainer.
type Options struct {
	// Workers fans each propagation round's delta-plan executions across
	// goroutines; 0 or 1 propagates sequentially.
	Workers int
}

// Maintainer delta-maintains the extents of a view set over a base
// database.
type Maintainer struct {
	views     []*cq.Query
	viewNames map[string]bool
	cp        *datalog.CompiledProgram
	st        *datalog.MaintState
	db        *storage.Database // base relations + maintained extents; see Database
	opt       Options

	batches      uint64
	baseInserted uint64
	baseDeleted  uint64
	derived      uint64
	retracted    uint64
	rounds       uint64
	maintainTime time.Duration
}

// BatchResult reports one applied update batch.
type BatchResult struct {
	// BaseInserted maps each base predicate to the tuples that were
	// actually new; duplicates of existing facts are dropped.
	BaseInserted map[string][]storage.Tuple
	// BaseDeleted maps each base predicate to the tuples that were
	// actually present and removed; deletions of absent facts are dropped.
	BaseDeleted map[string][]storage.Tuple
	// ExtentDelta maps each view to the extent tuples the propagation
	// derived.
	ExtentDelta map[string][]storage.Tuple
	// ExtentRetracted maps each view to the extent tuples the batch's
	// deletions retracted (their last derivation is gone). A mixed batch
	// must be replayed retractions-first: an insert in the same batch may
	// re-derive a retracted tuple, in which case it also appears in
	// ExtentDelta.
	ExtentRetracted map[string][]storage.Tuple
	// Stats reports the propagation rounds and derived-tuple count.
	Stats datalog.FixpointStats
	// Duration is the wall time of the batch: inserts plus propagation.
	Duration time.Duration
}

// Stats aggregates a Maintainer's lifetime work.
type Stats struct {
	// Batches is the number of ApplyUpdate calls that succeeded.
	Batches uint64
	// BaseInserted counts base tuples that were new across all batches.
	BaseInserted uint64
	// BaseDeleted counts base tuples removed across all batches.
	BaseDeleted uint64
	// ExtentDerived counts extent tuples derived across all batches.
	ExtentDerived uint64
	// ExtentRetracted counts extent tuples retracted across all batches.
	ExtentRetracted uint64
	// Rounds counts propagation rounds across all batches.
	Rounds uint64
	// MaintainTime is the cumulative wall time spent applying batches.
	MaintainTime time.Duration
}

// viewProgram validates a view set and turns it into the datalog program —
// one rule per view — the maintainer compiles, plus the set of view names.
func viewProgram(views []*cq.Query) (*datalog.Program, map[string]bool, error) {
	if len(views) == 0 {
		return nil, nil, fmt.Errorf("ivm: empty view set")
	}
	prog := &datalog.Program{}
	names := make(map[string]bool, len(views))
	for _, v := range views {
		if err := v.Validate(); err != nil {
			return nil, nil, fmt.Errorf("ivm: view %s: %w", v.Name(), err)
		}
		names[v.Name()] = true
		prog.Rules = append(prog.Rules, datalog.RuleFromQuery(v))
	}
	return prog, names, nil
}

// New builds a Maintainer: it materializes every view over base once (the
// last full evaluation the system ever pays for these views) and freezes
// the result for indexed delta propagation. The materialization runs on a
// private copy of base that first gets the column indexes the compiled view
// plans probe, so an unindexed base is joined by index probes, not nested
// scans. base is not retained or mutated. It is the one way the engine
// first builds served state.
func New(base *storage.Database, views []*cq.Query, opt Options) (*Maintainer, error) {
	prog, names, err := viewProgram(views)
	if err != nil {
		return nil, err
	}
	if base == nil {
		base = storage.NewDatabase()
	}
	cp, err := datalog.CompileProgramIVM(prog, cost.NewCatalog(base))
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	// Deletion state must see the pre-materialization base: view-named
	// facts present there are baseline and survive every retraction.
	st := cp.NewMaintState(base)
	db, err := cp.Eval(base)
	if err != nil {
		return nil, fmt.Errorf("ivm: materialize: %w", err)
	}
	db.BuildIndexes()
	return &Maintainer{views: views, viewNames: names, cp: cp, st: st, db: db, opt: opt}, nil
}

// NewFromMaterialized rebuilds a Maintainer around an already-materialized
// database — base relations plus every view extent, as recovered from a
// durable snapshot — skipping the full evaluation New pays. baseline is
// the deletion baseline exported by BaselineKeys on the maintainer that
// produced db (nil when no view-named base facts existed). db is adopted
// as the maintenance state: the caller must not mutate it afterwards.
func NewFromMaterialized(db *storage.Database, views []*cq.Query, baseline map[string][]string, opt Options) (*Maintainer, error) {
	prog, names, err := viewProgram(views)
	if err != nil {
		return nil, err
	}
	if db == nil {
		db = storage.NewDatabase()
	}
	// An extent that materialized empty may be absent from the snapshot
	// reader's database; the maintainer needs the relation to exist so
	// delta propagation has somewhere to land.
	for _, v := range views {
		if db.Relation(v.Name()) == nil {
			if _, err := db.Ensure(v.Name(), v.Arity()); err != nil {
				return nil, fmt.Errorf("ivm: %w", err)
			}
		}
	}
	cp, err := datalog.CompileProgramIVM(prog, cost.NewCatalog(db))
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	db.BuildIndexes()
	return &Maintainer{views: views, viewNames: names, cp: cp, st: cp.RestoreMaintState(baseline), db: db, opt: opt}, nil
}

// BaselineKeys exports the maintainer's deletion baseline for persistence;
// feed it back to NewFromMaterialized when rebuilding from a snapshot of
// Database().
func (m *Maintainer) BaselineKeys() map[string][]string { return m.st.BaselineKeys() }

// Views returns the maintained view definitions.
func (m *Maintainer) Views() []*cq.Query { return m.views }

// IsView reports whether pred names a maintained view extent.
func (m *Maintainer) IsView(pred string) bool { return m.viewNames[pred] }

// Database returns the maintained database: base relations plus every view
// extent, frozen, with indexes maintained across batches. It is the live
// maintenance state — callers must not read it concurrently with
// ApplyUpdate, and may change it only by binding relations of equal
// contents into it (storage.Database.Bind), which the next batch then
// maintains in place: the engine binds it to a serving side that way.
func (m *Maintainer) Database() *storage.Database { return m.db }

// ApplyUpdate applies a batch of base-fact changes — deletes and inserts,
// each across any number of predicates, either possibly nil — and
// delta-maintains every extent: deletes are removed (and their extent
// consequences retracted) first, then inserts propagate. The batch is
// validated before anything is mutated, and view predicates are rejected
// on both sides. Deleting absent tuples and inserting present ones are
// no-ops that propagate nothing.
func (m *Maintainer) ApplyUpdate(inserts, deletes map[string][]storage.Tuple) (*BatchResult, error) {
	return m.ApplyUpdateCtx(context.Background(), inserts, deletes, datalog.Limits{})
}

// ApplyUpdateCtx is ApplyUpdate under a cancellation context and evaluation
// limits. The batch is atomic: on any error — validation, cancellation
// (datalog.ErrCanceled), or a budget trip (datalog.ErrBudgetExceeded), even
// mid-retraction — datalog.ApplyUpdates rolls its journal back and the
// maintained database is exactly its pre-batch state, so an aborted batch
// can simply be retried. A panic during propagation also rolls back before
// being re-raised to the caller's recover guard.
func (m *Maintainer) ApplyUpdateCtx(ctx context.Context, inserts, deletes map[string][]storage.Tuple, lim datalog.Limits) (*BatchResult, error) {
	start := time.Now()
	ures, err := m.cp.ApplyUpdatesCtx(ctx, m.db, m.st, inserts, deletes, m.opt.Workers, lim)
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	res := &BatchResult{
		BaseInserted:    ures.BaseInserted,
		BaseDeleted:     ures.BaseDeleted,
		ExtentDelta:     ures.Derived,
		ExtentRetracted: ures.Retracted,
		Stats:           ures.Stats,
		Duration:        time.Since(start),
	}
	m.batches++
	for _, tuples := range res.BaseInserted {
		m.baseInserted += uint64(len(tuples))
	}
	for _, tuples := range res.BaseDeleted {
		m.baseDeleted += uint64(len(tuples))
	}
	for _, tuples := range res.ExtentRetracted {
		m.retracted += uint64(len(tuples))
	}
	m.derived += uint64(res.Stats.Derived)
	m.rounds += uint64(res.Stats.Iterations)
	m.maintainTime += res.Duration
	return res, nil
}

// Stats snapshots the maintainer's lifetime counters.
func (m *Maintainer) Stats() Stats {
	return Stats{
		Batches:         m.batches,
		BaseInserted:    m.baseInserted,
		BaseDeleted:     m.baseDeleted,
		ExtentDerived:   m.derived,
		ExtentRetracted: m.retracted,
		Rounds:          m.rounds,
		MaintainTime:    m.maintainTime,
	}
}
