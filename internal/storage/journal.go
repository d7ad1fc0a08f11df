package storage

import "slices"

// Journal is the record of one atomic batch against a Database, and the
// single undo mechanism: datalog.ApplyUpdatesCtx journals the maintained
// database (in a live engine, the relations of the serving side being
// written) and returns the journal as the batch's record, which the engine
// replays onto the other serving side (Replay) or, when the WAL refuses
// the batch, rolls back (Rollback).
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
// A database owns one journal (Database.journal): a database has exactly one
// writer, so it runs at most one batch at a time — the maintainer's
// database and each serving side each have their own. NewJournal resets
// that journal for the next batch and returns it, so a batch allocates
// its tuples, not its log: the reset clears the removal log's entries, so
// no tuple of the earlier batch stays pinned through it, and empties the
// insert marks, so no relation of the earlier batch stays a key. Until
// that reset the journal is the last batch's record. A log or mark map
// grown past maxKeptRemovals or maxKeptMarks is dropped at the reset
// rather than kept, so one huge batch does not hold its bookkeeping for
// the life of the database.
//
// The journal also keeps the batch's base lists (BaseLists), the maps a
// batch reports its effective base inserts and deletions in and the arena
// the deletion lists are windows onto: the reset empties them, clearing the
// arena's used part, and drops an arena past maxKeptRemovals rows or maps
// past maxKeptMarks keys like the log and the marks.
type Journal struct {
	db      *Database
	removed []journalRemoval
	marks   map[*Relation]int
	marked  bool // MarkInserts ran: marks holds the batch's relation lengths

	inserted, deleted map[string][]Tuple
	deletedRows       []Tuple // the arena deleted's lists are windows onto
}

type journalRemoval struct {
	pred string
	t    Tuple
}

// Beyond these a journal's removal log (entries) and insert marks
// (relations) are dropped at a reset instead of kept for the next batch.
const (
	maxKeptRemovals = 4096
	maxKeptMarks    = 256
)

// NewJournal resets db's journal and returns it: the rollback log of one
// batch against db, which replaces the log of the batch before.
func NewJournal(db *Database) *Journal {
	j := &db.journal
	j.db = db
	if cap(j.removed) > maxKeptRemovals {
		j.removed = nil
	} else {
		clear(j.removed)
		j.removed = j.removed[:0]
	}
	if len(j.marks) > maxKeptMarks {
		j.marks = nil
	} else {
		clear(j.marks)
	}
	j.marked = false
	if cap(j.deletedRows) > maxKeptRemovals {
		j.deletedRows = nil
	} else {
		for _, w := range j.deleted {
			clear(w) // the windows cover the arena's used part
		}
	}
	if len(j.inserted)+len(j.deleted) > maxKeptMarks {
		j.inserted, j.deleted = nil, nil
	} else {
		clear(j.inserted)
		clear(j.deleted)
	}
	return j
}

// BaseLists returns the batch's base lists, kept by the journal: the maps
// of effective inserts and deletions per predicate, empty since the reset,
// and the arena of deleted rows, empty with room for n rows, onto which the
// deletion lists are to be windows. Appending at most n rows to the arena
// keeps it the journal's own. The lists are the batch's until the reset.
func (j *Journal) BaseLists(n int) (inserted, deleted map[string][]Tuple, arena []Tuple) {
	if j.inserted == nil {
		j.inserted, j.deleted = make(map[string][]Tuple), make(map[string][]Tuple)
	}
	if cap(j.deletedRows) < n {
		j.deletedRows = make([]Tuple, 0, n)
	}
	return j.inserted, j.deleted, j.deletedRows[:0]
}

// RemoveAll deletes every tuple of ts from pred's relation and journals each
// removal, returning how many were present (a missing relation holds
// nothing). The removal log grows once, for all of ts, so a batch's
// removals cost one growth per predicate, not one per row. Like
// Relation.Remove it panics on an arity mismatch. Removing after
// MarkInserts is a bug: the length marks could no longer identify the
// batch's inserts.
func (j *Journal) RemoveAll(pred string, ts []Tuple) int {
	if j.marked {
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
	if j.marks == nil {
		j.marks = make(map[*Relation]int, len(j.db.rels))
	}
	j.marked = true
	for _, rel := range j.db.rels {
		j.marks[rel] = len(rel.tuples)
	}
}

// Rollback restores the database to its state at NewJournal.
func (j *Journal) Rollback() {
	if j.marked {
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

// Replay applies the committed batch j records onto another database,
// through that database's just-reset journal dst: j's removals first, then
// dst.MarkInserts, then every row past a relation's insert mark, or every
// row of a relation the batch created (frozen on dst if frozen here). A row
// both removed and stored again — a DRed survivor — is why removals go
// first. Only predicates keep accepts are replayed; rows are adopted, so
// both databases hold one physical row; a removal dst lacks is skipped. On
// an error (an arity dst disagrees with) or a panic, dst.Rollback undoes
// the replay.
func (j *Journal) Replay(dst *Journal, keep func(pred string) bool) error {
	dst.removed = slices.Grow(dst.removed, len(j.removed))
	for _, r := range j.removed {
		if rel := dst.db.rels[r.pred]; rel != nil && keep(r.pred) {
			if stored, ok := rel.take(r.t); ok {
				dst.removed = append(dst.removed, journalRemoval{pred: r.pred, t: stored})
			}
		}
	}
	dst.MarkInserts()
	for pred, rel := range j.db.rels {
		n, marked := j.marks[rel]
		if (marked && n == len(rel.tuples)) || !keep(pred) {
			continue
		}
		to, err := dst.db.Ensure(pred, rel.arity)
		if err != nil {
			return err
		}
		for _, t := range rel.tuples[n:] {
			to.Adopt(t)
		}
		if !marked && rel.Frozen() {
			to.BuildIndexes()
		}
	}
	return nil
}
