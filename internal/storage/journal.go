package storage

// Journal is the rollback log of one atomic batch against a Database — the
// single undo mechanism behind datalog.ApplyUpdatesCtx (the maintained
// database, which in a live engine holds the relations of the serving side
// being written) and the engine's replay onto the other serving side.
//
// A batch has two phases. The delete phase removes tuples through Remove,
// which records each successful removal: removals swap-fill positions, so
// only an operation log can undo them. MarkInserts then opens the
// insert-only tail, which plain Relation.Insert and Adopt calls extend and
// one length mark per relation covers. Rollback undoes both in reverse:
// truncate every relation to its mark, drop the relations the batch
// created, re-adopt the removals last-first. The tuple sets and every maintained column index are
// exactly the pre-batch ones afterwards; intra-relation order may permute.
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

// Remove deletes t from pred's relation and journals the removal, reporting
// whether the tuple was present (a missing relation holds nothing). Like
// Relation.Remove it panics on an arity mismatch. Removing after MarkInserts
// is a bug: the length marks could no longer identify the batch's inserts.
func (j *Journal) Remove(pred string, t Tuple) bool {
	if j.marks != nil {
		panic("storage: Journal.Remove after MarkInserts")
	}
	rel := j.db.rels[pred]
	if rel == nil {
		return false
	}
	stored, ok := rel.take(t)
	if ok {
		j.removed = append(j.removed, journalRemoval{pred: pred, t: stored})
	}
	return ok
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
