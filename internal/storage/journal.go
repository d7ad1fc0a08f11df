package storage

import "slices"

// Journal is the rollback log of one atomic batch against a Database — the
// single undo mechanism behind datalog.ApplyUpdatesCtx (the maintained
// database, which in a live engine holds the relations of the serving side
// being written) and the engine's replay onto the other serving side.
//
// A batch has two phases. The delete phase removes tuples through
// RemoveAll, a predicate's list at a time, which records each successful
// removal: removals swap-fill positions, so only an operation log can undo
// them, and the log grows once per list, not per row. MarkInserts then
// opens the insert-only tail, which plain Relation.Insert and Adopt calls
// extend and one length mark per relation covers. Rollback undoes both in
// reverse: truncate every relation to its mark, drop the relations the
// batch created, re-adopt the removals last-first. The tuple sets and every
// maintained column index are exactly the pre-batch ones afterwards;
// intra-relation order may permute.
// A removal is journaled as the stored tuple it took out, never as the
// caller's, and Rollback re-adopts that tuple: rolling back allocates no
// tuple and leaves no caller's memory in the database.
//
// A Journal carries the database's single-writer requirement and is good for
// one batch.
type Journal struct {
	db      *Database
	removed []journalRemoval
	marks   map[*Relation]int // nil until MarkInserts
}

type journalRemoval struct {
	pred string
	t    Tuple
}

// NewJournal starts the rollback log of one batch against db.
func NewJournal(db *Database) *Journal { return &Journal{db: db} }

// RemoveAll deletes every tuple of ts from pred's relation and journals each
// removal, returning how many were present (a missing relation holds
// nothing). The removal log grows once, for all of ts, so a batch's
// removals cost one growth per predicate, not one per row. Like
// Relation.Remove it panics on an arity mismatch. Removing after
// MarkInserts is a bug: the length marks could no longer identify the
// batch's inserts.
func (j *Journal) RemoveAll(pred string, ts []Tuple) int {
	if j.marks != nil {
		panic("storage: Journal.RemoveAll after MarkInserts")
	}
	rel := j.db.rels[pred]
	if rel == nil {
		return 0
	}
	j.removed = slices.Grow(j.removed, len(ts))
	n := 0
	for _, t := range ts {
		if stored, ok := rel.take(t); ok {
			j.removed = append(j.removed, journalRemoval{pred: pred, t: stored})
			n++
		}
	}
	return n
}

// MarkInserts records every relation's length: from here on the batch only
// inserts, into these relations or into ones it creates.
func (j *Journal) MarkInserts() {
	j.marks = make(map[*Relation]int, len(j.db.rels))
	for _, rel := range j.db.rels {
		j.marks[rel] = len(rel.tuples)
	}
}

// Rollback restores the database to its state at NewJournal.
func (j *Journal) Rollback() {
	if j.marks != nil {
		for pred, rel := range j.db.rels {
			if n, ok := j.marks[rel]; ok {
				rel.TruncateTo(n)
			} else {
				j.db.Drop(pred)
			}
		}
	}
	for i := len(j.removed) - 1; i >= 0; i-- {
		r := j.removed[i]
		j.db.rels[r.pred].Adopt(r.t)
	}
}
