package datalog

import (
	"errors"
	"slices"

	"repro/internal/storage"
)

// Incremental view maintenance. A program compiled with CompileProgramIVM
// carries one delta variant per body occurrence: EDB occurrences, and IDB
// occurrences of lower strata as well as of the head's own (the stratified
// fixpoint fires only the last kind). ApplyUpdatesCtx (delete.go) is the one
// write entry point; the insert side of every batch propagates here,
// through those variants, without re-running the fixpoint:
//
//   - the database itself is the maintenance state: it holds the base
//     relations and the accumulated derived relations side by side (the
//     shape CompiledProgram.Eval returns), and new derivations are added
//     straight into it, incrementally maintaining its column indexes (a
//     relation appends to built indexes in O(arity)) — each round's
//     buffered rows copied into one backing array per buffer, after the
//     relation is grown for them (mergeRound);
//   - the seed round fires exactly the EDB delta variants whose predicate
//     gained tuples, with the batch at the join root and every other atom
//     reading the post-batch database — any derivation that uses at least
//     one new base tuple is found, and derivations that use none were
//     already present (insertion is monotone; deletions take the
//     non-monotone DRed path in delete.go);
//   - subsequent rounds are ordinary semi-naive: the IDB delta variants
//     fire on whatever the previous round newly derived, until quiescence;
//   - within a round the database is only read (derivations are buffered
//     per task and merged between rounds), exactly like fixpoint rounds;
//     the round's bookkeeping comes from the batch's pooled maintScratch.
//
// Work per batch is therefore proportional to the consequences of the
// delta, not to the size of the database.

// ErrNotMaintenance reports an ApplyUpdatesCtx call on a program compiled
// without EDB delta variants.
var ErrNotMaintenance = errors.New("datalog: program not compiled for maintenance (use CompileProgramIVM)")

// applyInserts is the insert phase of a batch: it inserts the (already
// validated) facts, creating missing relations, and propagates the ones
// that were new through the delta variants. It fills fresh, the journal's
// kept map, with the per-predicate base tuples that were actually new; the
// derived ones are the tail of their relations past the journal's insert
// mark. A failure leaves db partially updated; applyUpdates rolls it back
// through that mark.
func (cp *CompiledProgram) applyInserts(db *storage.Database, ms *maintScratch, inserts, fresh map[string][]storage.Tuple, gs *guardState, lim Limits) (FixpointStats, error) {
	if err := insertBase(db, inserts, fresh); err != nil {
		return FixpointStats{}, err
	}
	return cp.propagate(db, ms, fresh, gs, lim)
}

// insertBase inserts a batch's base facts, recording in fresh the ones that
// were new as the stored rows, never the caller's tuples. Each predicate's
// relation is grown for its whole list, and the caller's values are copied
// into one backing array per storage.ChunkRows rows, onto which each new row
// is adopted as a capacity-limited window (adoptRow): a batch costs one copy
// per chunk, not a clone per row, and a stored row pins at most its chunk.
// A row already present, or repeated in the batch, is truncated away, and
// the slots past a chunk's last adopted row are cleared, so its backing
// keeps no rejected value alive. Rows are only appended, so the new ones are
// the relation's tail, and fresh holds that tail itself as a
// capacity-limited window onto the relation's rows, not a copy: it reads
// the batch's rows until the relation is next written, by the database's
// next batch.
func insertBase(db *storage.Database, inserts, fresh map[string][]storage.Tuple) error {
	for pred, tuples := range inserts {
		if len(tuples) == 0 {
			continue
		}
		rel, err := db.Ensure(pred, len(tuples[0]))
		if err != nil {
			return err
		}
		before := rel.Len()
		rel.Grow(len(tuples))
		for chunk := range slices.Chunk(tuples, storage.ChunkRows) {
			backing := make([]string, 0, len(chunk)*rel.Arity())
			for _, t := range chunk {
				backing = adoptRow(rel, backing, t)
			}
			clear(backing[len(backing):cap(backing)])
		}
		if n := rel.Len(); n > before {
			fresh[pred] = rel.Tuples()[before:n:n]
		}
	}
	return nil
}

// propagate runs the semi-naive insert propagation: delta, already inserted
// into db, seeds the EDB delta variants; every round's new derivations are
// merged into db and feed the next round.
func (cp *CompiledProgram) propagate(db *storage.Database, ms *maintScratch, delta map[string][]storage.Tuple, gs *guardState, lim Limits) (FixpointStats, error) {
	var stats FixpointStats
	cur := delta
	for {
		ms.tasks = deltaTasks(ms.tasks[:0], cp.rules, cur, true)
		if len(ms.tasks) == 0 {
			return stats, gs.failure()
		}
		if err := gs.barrier(); err != nil {
			return stats, err
		}
		if err := checkFixpointBudget(stats, lim); err != nil {
			return stats, err
		}
		stats.Iterations++
		var err error
		ms.bufs, err = runTaskSet(ms.bufs, len(ms.tasks), func(i int) (*runScratch, error) {
			t := ms.tasks[i]
			ms.head = db.Relation(t.rule.headPred)
			return emitVariant(t.v, t.delta, db, nil, gs, ms.absent)
		})
		if err != nil {
			return stats, err
		}
		// delta, the batch's fresh base tuples, is the caller's result: the
		// merges fill the scratch's map instead.
		if ms.cur, err = mergeRound(ms.cur, ms.tasks, ms.bufs, func(r *compiledRule) (*storage.Relation, *storage.Relation, error) {
			rel, err := db.Ensure(r.headPred, r.arity)
			return rel, nil, err
		}); err != nil {
			return stats, err
		}
		cur = ms.cur
		for _, c := range cur {
			stats.Derived += len(c)
		}
	}
}
