// Package ivm incrementally maintains materialized view extents under
// base-fact inserts, deletions, and mixed update batches. A Maintainer
// owns a private database holding the base relations and every view
// extent; each view definition is compiled once into per-EDB-occurrence
// delta plans (datalog.CompileProgramIVM), and an update batch runs one
// semi-naive propagation round per affected occurrence instead of
// re-materializing any extent — work is proportional to the consequences
// of the batch, not to the size of the database.
//
// Inserts propagate monotonically. Deletions are non-monotone and take the
// datalog counting/DRed machinery (ApplyUpdates): view sets are flat, so
// the compiled program tracks exact per-derived-tuple derivation counts —
// built lazily on the first deletion — and retracts an extent tuple
// exactly when its count reaches zero. Batches mixing deletions and
// insertions apply deletions first and are atomic either way.
//
// The Maintainer is the engine's mutation path: Engine.InsertBatch and
// Engine.DeleteBatch apply a batch here, then forward the returned base
// and extent deltas to the serving snapshots. It is equally usable
// standalone for applications that keep extents fresh without the serving
// layer.
//
// A Maintainer is single-writer: calls to ApplyBatch must be serialized by
// the caller (the engine holds an update mutex). Reads of the maintained
// database may not overlap an ApplyBatch call.
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
	db        *storage.Database // base relations + maintained extents
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
	// Batches is the number of ApplyBatch/ApplyUpdate calls that succeeded.
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

// New builds a Maintainer: it materializes every view over base once (the
// last full evaluation the system ever pays for these views) and freezes
// the result for indexed delta propagation. base is not retained or
// mutated.
func New(base *storage.Database, views []*cq.Query, opt Options) (*Maintainer, error) {
	if len(views) == 0 {
		return nil, fmt.Errorf("ivm: empty view set")
	}
	prog := &datalog.Program{}
	names := make(map[string]bool, len(views))
	for _, v := range views {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("ivm: view %s: %w", v.Name(), err)
		}
		names[v.Name()] = true
		prog.Rules = append(prog.Rules, datalog.RuleFromQuery(v))
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
	if len(views) == 0 {
		return nil, fmt.Errorf("ivm: empty view set")
	}
	prog := &datalog.Program{}
	names := make(map[string]bool, len(views))
	for _, v := range views {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("ivm: view %s: %w", v.Name(), err)
		}
		names[v.Name()] = true
		prog.Rules = append(prog.Rules, datalog.RuleFromQuery(v))
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
// maintenance state — callers must not mutate it, and must not read it
// concurrently with ApplyBatch.
func (m *Maintainer) Database() *storage.Database { return m.db }

// ApplyBatch inserts base facts — across any number of predicates — and
// delta-maintains every extent. Inserts into view predicates are rejected,
// and the batch is validated before anything is mutated. Tuples already
// present count as duplicates and propagate nothing.
func (m *Maintainer) ApplyBatch(updates map[string][]storage.Tuple) (*BatchResult, error) {
	return m.ApplyBatchCtx(context.Background(), updates, datalog.Limits{})
}

// ApplyUpdate applies a mixed batch: deletes are removed (and their extent
// consequences retracted) first, then inserts propagate as in ApplyBatch.
// The batch is atomic — on any error the maintained database is exactly
// its pre-batch state. Deleting absent tuples is a no-op; view
// predicates are rejected on both sides.
func (m *Maintainer) ApplyUpdate(inserts, deletes map[string][]storage.Tuple) (*BatchResult, error) {
	return m.ApplyUpdateCtx(context.Background(), inserts, deletes, datalog.Limits{})
}

// undoLog records every relation's pre-batch tuple count. It backs the
// monotone insert path only: those batches never remove tuples, so
// truncating each relation back to its recorded length — and dropping
// relations the batch created — restores the exact pre-batch state.
// Deletion batches are instead journaled inside datalog.ApplyUpdates, which
// removes before it appends.
type undoLog map[string]int

// snapshot captures the pre-batch relation sizes. O(number of relations),
// no tuple copying.
func (m *Maintainer) snapshot() undoLog {
	u := make(undoLog)
	for _, pred := range m.db.Predicates() {
		u[pred] = m.db.Relation(pred).Len()
	}
	return u
}

// restore rolls the database back to the undo log: relations the batch
// created are dropped, the rest are truncated to their pre-batch lengths
// (index postings are unwound with the tuples).
func (m *Maintainer) restore(u undoLog) {
	for _, pred := range m.db.Predicates() {
		n, ok := u[pred]
		if !ok {
			m.db.Drop(pred)
			continue
		}
		m.db.Relation(pred).TruncateTo(n)
	}
}

// ApplyBatchCtx is ApplyBatch under a cancellation context and evaluation
// limits. The batch is atomic: on any error — validation, cancellation
// (datalog.ErrCanceled), or a budget trip (datalog.ErrBudgetExceeded) —
// every partially propagated tuple is rolled back and the maintained
// database is exactly its pre-batch state, so an aborted batch can simply
// be retried. A panic during propagation also rolls back before being
// re-raised to the caller's recover guard.
func (m *Maintainer) ApplyBatchCtx(ctx context.Context, updates map[string][]storage.Tuple, lim datalog.Limits) (*BatchResult, error) {
	return m.ApplyUpdateCtx(ctx, updates, nil, lim)
}

// ApplyUpdateCtx is ApplyUpdate under a cancellation context and evaluation
// limits, with the same atomicity contract as ApplyBatchCtx: cancellation
// or a tripped budget mid-retraction rolls the whole batch back. Insert-only
// batches keep the monotone propagation path until the first deletion
// builds the derivation counts; from then on every batch flows through the
// counting path so the counts stay exact.
func (m *Maintainer) ApplyUpdateCtx(ctx context.Context, inserts, deletes map[string][]storage.Tuple, lim datalog.Limits) (*BatchResult, error) {
	start := time.Now()
	hasDeletes := false
	for _, tuples := range deletes {
		if len(tuples) > 0 {
			hasDeletes = true
			break
		}
	}
	var (
		res *BatchResult
		err error
	)
	if hasDeletes || m.st.CountsReady() {
		res, err = m.applyNonMonotone(ctx, inserts, deletes, lim)
	} else {
		res, err = m.applyMonotone(ctx, inserts, lim)
	}
	if err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
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

// applyMonotone is the insert-only path: delta propagation with a
// length-snapshot undo log for atomicity.
func (m *Maintainer) applyMonotone(ctx context.Context, updates map[string][]storage.Tuple, lim datalog.Limits) (res *BatchResult, err error) {
	undo := m.snapshot()
	defer func() {
		if r := recover(); r != nil {
			m.restore(undo)
			panic(r)
		}
		if err != nil {
			m.restore(undo)
		}
	}()
	fresh, derived, stats, err := m.cp.ApplyInsertsCtx(ctx, m.db, updates, m.opt.Workers, lim)
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	return &BatchResult{BaseInserted: fresh, ExtentDelta: derived, Stats: stats}, nil
}

// applyNonMonotone is the deletion-capable path: datalog.ApplyUpdates
// journals and rolls back internally, so no snapshot is needed here.
func (m *Maintainer) applyNonMonotone(ctx context.Context, inserts, deletes map[string][]storage.Tuple, lim datalog.Limits) (*BatchResult, error) {
	ures, err := m.cp.ApplyUpdatesCtx(ctx, m.db, m.st, inserts, deletes, m.opt.Workers, lim)
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	return &BatchResult{
		BaseInserted:    ures.BaseInserted,
		BaseDeleted:     ures.BaseDeleted,
		ExtentDelta:     ures.Derived,
		ExtentRetracted: ures.Retracted,
		Stats:           ures.Stats,
	}, nil
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
