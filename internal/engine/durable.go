package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/durable"
	"repro/internal/ivm"
	"repro/internal/storage"
)

// Durable storage wiring: Options.DataDir turns construction into
// recovery (newest valid snapshot + WAL replay through the maintainer,
// before any serving side exists, so recovery copies nothing but the one
// clone that becomes side 1), the mutation funnel into a log-then-publish
// commit protocol (the batch is logged while its side is still locked and
// inactive), and Close into a checkpoint. The engine always snapshots the
// maintainer's *full* state — its private base relations plus the extents
// of the side it is bound to, which are current between batches —
// regardless of serving layout, so the same snapshot can boot any strategy
// with or without AllowPartial and a stale snapshot still yields its base
// facts for re-materialization.

// defaultSnapshotWALBytes is the WAL size that triggers a background
// checkpoint when Options.SnapshotWALBytes is zero.
const defaultSnapshotWALBytes = 64 << 20

// durableState ties an engine to its on-disk store.
type durableState struct {
	store     *durable.Store
	fp        string // fingerprint of the engine's view definitions
	threshold int64  // WAL bytes that trigger a background checkpoint; <0 disables
	logf      func(format string, args ...any)

	snapshotting atomic.Bool // one background checkpoint at a time
	closed       atomic.Bool

	// Recovery outcome, fixed at construction.
	recoveredTuples  int
	recoveredBatches int
	replayTime       time.Duration
	staleRebuild     bool
	coldStart        time.Duration
}

// DurableStats reports the durable-storage position, lifetime write work,
// and the recovery outcome of this process's construction.
type DurableStats struct {
	// Enabled is false when the engine was built without Options.DataDir
	// (every other field is then zero).
	Enabled bool
	// Stats is the store's log position and write work. Under Failed a
	// WAL write failed: mutations are refused, reads keep serving.
	durable.Stats
	// RecoveredTuples is the tuple count loaded from the snapshot at boot;
	// RecoveredBatches the WAL records replayed on top of it, taking
	// ReplayTime. StaleRebuild reports that the snapshot's view
	// fingerprint mismatched and the extents were re-materialized from
	// the recovered base facts. ColdStart is the total wall time from
	// opening the store to a ready maintainer.
	RecoveredTuples  int
	RecoveredBatches int
	ReplayTime       time.Duration
	StaleRebuild     bool
	ColdStart        time.Duration
}

func (ds *durableState) stats() DurableStats {
	return DurableStats{
		Enabled:          true,
		Stats:            ds.store.Stats(),
		RecoveredTuples:  ds.recoveredTuples,
		RecoveredBatches: ds.recoveredBatches,
		ReplayTime:       ds.replayTime,
		StaleRebuild:     ds.staleRebuild,
		ColdStart:        ds.coldStart,
	}
}

// viewsFingerprint identifies a view-definition set independent of
// definition order and variable naming: the sorted canonical fingerprints
// of every view, keyed by its name, hashed together.
func viewsFingerprint(views []*cq.Query) string {
	fps := make([]string, len(views))
	for i, v := range views {
		fps[i] = v.Name() + "|" + cq.Fingerprint(v)
	}
	sort.Strings(fps)
	h := sha256.New()
	io.WriteString(h, "aqv-views-v1\n")
	for _, f := range fps {
		io.WriteString(h, f)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newDurable is NewFromBase under Options.DataDir: open the store, recover
// (snapshot + replay) or materialize, build the serving engine, and make
// sure a snapshot covering the current state exists before any batch can
// be logged.
func newDurable(vs *core.ViewSet, base *storage.Database, views []*cq.Query, opt Options) (*Engine, error) {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	store, err := durable.Open(opt.DataDir, durable.Options{NoSync: opt.WALNoSync})
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			store.Close()
		}
	}()
	ds := &durableState{store: store, fp: viewsFingerprint(views), threshold: opt.SnapshotWALBytes, logf: logf}
	if ds.threshold == 0 {
		ds.threshold = defaultSnapshotWALBytes
	}
	start := time.Now()
	var m *ivm.Maintainer
	if man := store.Manifest(); man != nil {
		if man.ViewsFingerprint == ds.fp {
			db, err := store.LoadSnapshot()
			if err != nil {
				return nil, err
			}
			for _, rm := range man.Relations {
				ds.recoveredTuples += rm.Rows
			}
			m, err = ivm.NewFromMaterialized(db, views)
			if err != nil {
				return nil, err
			}
			replayStart := time.Now()
			n, err := store.Replay(func(rec durable.Record) error {
				_, err := m.ApplyUpdate(rec.Inserts, rec.Deletes)
				return err
			})
			if err != nil {
				return nil, err
			}
			ds.recoveredBatches = n
			ds.replayTime = time.Since(replayStart)
		} else {
			logf("engine: snapshot in %s was materialized under different view definitions; re-materializing from its base facts", opt.DataDir)
			ds.staleRebuild = true
			if base, err = store.RecoverBaseFacts(); err != nil {
				return nil, err
			}
		}
	}
	fresh := m == nil
	if fresh {
		if m, err = ivm.New(base, views, ivm.Options{}); err != nil {
			return nil, err
		}
	}
	ds.coldStart = time.Since(start)

	e, err := newFromMaintainer(vs, m, views, opt)
	if err != nil {
		return nil, err
	}
	e.dur = ds
	if fresh {
		// The WAL may only ever hold batches a snapshot precedes;
		// establish that before the first Append can happen.
		if err := ds.checkpoint(m); err != nil {
			return nil, err
		}
	} else if ds.recoveredBatches > 0 && ds.threshold > 0 && store.WALBytes() >= ds.threshold {
		if err := ds.checkpoint(m); err != nil {
			logf("engine: boot checkpoint failed (the WAL still covers every batch): %v", err)
		}
	}
	ok = true
	return e, nil
}

// checkpoint writes a snapshot of the maintainer's full state. The caller
// must hold whatever excludes concurrent batches (the update mutex, or
// construction-time exclusivity). On a live engine the maintainer's extents
// are the relations of the active serving side; the snapshot only reads
// them, alongside the readers.
func (ds *durableState) checkpoint(m *ivm.Maintainer) error {
	db := m.Database()
	extents := make(map[string]bool)
	for _, pred := range db.Predicates() {
		if m.IsView(pred) {
			extents[pred] = true
		}
	}
	return ds.store.WriteSnapshot(db, durable.SnapshotMeta{
		ViewsFingerprint: ds.fp,
		Extents:          extents,
	})
}

// maybeCheckpoint spawns one background checkpoint when the WAL has
// crossed the size threshold. Called from the mutation path right after a
// publish; the goroutine re-acquires the update mutex, so writers stall
// behind the checkpoint while readers keep serving the sides.
func (ds *durableState) maybeCheckpoint(e *Engine) {
	if ds.threshold <= 0 || ds.store.WALBytes() < ds.threshold {
		return
	}
	if !ds.snapshotting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer ds.snapshotting.Store(false)
		if err := e.Checkpoint(); err != nil {
			ds.logf("engine: background checkpoint failed (the WAL still covers every batch): %v", err)
		}
	}()
}

// Checkpoint writes a snapshot of the engine's current durable state and
// truncates the WAL. No-op (nil) on engines without Options.DataDir and on
// frozen durable engines, whose state was checkpointed at construction and
// cannot change. Safe to call concurrently with updates: it serializes
// behind the update mutex.
func (e *Engine) Checkpoint() error {
	if e.dur == nil || e.live == nil {
		return nil
	}
	l := e.live
	l.updateMu.Lock()
	defer l.updateMu.Unlock()
	return e.dur.checkpoint(l.maint)
}

// Close checkpoints the engine's durable state (when it has batches the
// current snapshot does not cover) and releases the store. Idempotent.
// Engines without Options.DataDir have nothing to release: Close is a
// no-op returning nil.
func (e *Engine) Close() error {
	if e.dur == nil {
		return nil
	}
	if e.dur.closed.Swap(true) {
		return nil
	}
	var err error
	if e.live != nil && e.dur.store.Err() == nil && e.dur.store.Dirty() {
		err = e.Checkpoint()
	}
	if cerr := e.dur.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// logBatch appends one applied batch to the WAL — the effective batch (the
// tuples that actually changed), which replays to the identical state.
// Called under the update mutex, after the maintainer committed the batch
// onto the inactive serving side and before that side is flipped active.
// An empty effective batch logs nothing.
func (ds *durableState) logBatch(res *ivm.BatchResult) error {
	if len(res.BaseDeleted) == 0 && len(res.BaseInserted) == 0 {
		return nil
	}
	if _, err := ds.store.Append(res.BaseDeleted, res.BaseInserted); err != nil {
		ds.logf("engine: WAL append failed; refusing further mutations (reads keep serving): %v", err)
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}
