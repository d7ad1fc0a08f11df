package datalog

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Non-monotone incremental maintenance: deletions and mixed update batches.
//
// Inserting into a materialized program is monotone — every new derivation
// is found by a delta plan and merged (ivm.go). Deleting is not: a derived
// tuple must disappear exactly when its *last* derivation does, which set
// semantics cannot see. Every program closes the gap with DRed
// (delete-and-rederive; Gupta, Mumick & Subrahmanian, SIGMOD 1993): an
// over-deletion fixpoint runs the same delta variants insert propagation
// uses, over the still-intact pre-delete database, marking everything that
// *might* have lost support; the marked tuples are physically removed; then
// a bounded semi-naive pass re-derives the survivors — round 0 runs each
// rule rooted at its own head (fed by the over-deleted set), later rounds
// propagate re-insertions through the ordinary IDB delta variants until
// quiescence. The same algorithm serves flat view sets, recursive programs,
// and multi-level rules such as inverse-rules output, and it keeps no state
// between batches. Facts given for a derived predicate directly are one
// more rule over a base relation that holds them (ivm adds it per view), so
// the re-derive pass keeps them like any other supported tuple.
//
// ApplyUpdatesCtx is the single entry point: a mixed batch (deletes applied
// before inserts, either side possibly empty) that is atomic — every
// mutation is covered by a storage.Journal and rolled back on error or
// panic, so a canceled or budget-tripped batch leaves the database exactly
// as it was.

// UpdateResult reports one applied mixed batch: what actually changed in
// the base relations, and the batch's journal, which records every change
// to the database, derived extents included.
type UpdateResult struct {
	// BaseInserted / BaseDeleted are the base tuples that were actually
	// fresh / actually present, per predicate.
	BaseInserted map[string][]storage.Tuple
	BaseDeleted  map[string][]storage.Tuple
	// Journal is the database's journal, holding the batch: its removals
	// (base deletions and over-deleted rows) and, past its insert marks,
	// every row it stored (fresh base rows, DRed survivors, new
	// derivations). Journal.Replay mirrors the batch onto another database
	// and Journal.Rollback undoes it. It is the batch's record until the
	// database's next batch resets it.
	Journal *storage.Journal
	// NetRetracted counts the derived rows the batch over-deleted and did
	// not re-derive as DRed survivors.
	NetRetracted int
	// Stats counts the batch's rounds and, as Derived, the rows it adds to
	// the extents, mirroring NetRetracted: an over-deleted row is not an
	// addition, nor is a DRed survivor, removed and put back.
	Stats FixpointStats
}

// supportVariant is a rule compiled for DRed re-derivation: the rule rooted
// at its own head atom, fed by the over-deleted tuples (rooted == true), or
// a marker to fall back to the filtered full variant when the head contains
// Skolem terms and cannot be expressed as a body atom.
type supportVariant struct {
	rooted bool
	v      ruleVariant
}

// compileDeletionSupport lowers the deletion-side plans of an IVM program,
// indexed like cp.rules: the head-rooted support variants of the DRed
// re-derivation pass.
func (cp *CompiledProgram) compileDeletionSupport(cat *cost.Catalog) {
	cp.supports = make([]supportVariant, len(cp.rules))
	for i := range cp.rules {
		cp.supports[i] = compileSupportVariant(cp.rules[i].src, cat)
	}
}

// compileSupportVariant lowers the DRed round-0 re-derivation plan of one
// rule: the rule with its own head prepended as the root body atom, so the
// over-deleted set feeds the root and the remaining atoms check whether a
// derivation survives in the post-removal database.
func compileSupportVariant(r Rule, cat *cost.Catalog) supportVariant {
	args := make([]cq.Term, len(r.Head))
	for i, h := range r.Head {
		if h.Skolem != nil {
			return supportVariant{} // head not expressible as an atom: filtered full variant
		}
		args[i] = h.Term
	}
	sr := Rule{
		HeadPred:    r.HeadPred,
		Head:        r.Head,
		Body:        append([]cq.Atom{{Pred: r.HeadPred, Args: args}}, r.Body...),
		Comparisons: r.Comparisons,
	}
	return supportVariant{rooted: true, v: compileRuleVariant(sr, 0, cat)}
}

// ---- mixed batch application ----

// ApplyUpdatesCtx applies a mixed batch — deletions, then insertions,
// either possibly nil — to a maintained database, keeping every derived
// extent exact: the insert phase alone when nothing present is deleted,
// DRed otherwise (see the comment above). db must hold the accumulated
// derived relations alongside the base relations (the database
// CompiledProgram.Eval returns, or one maintained by earlier calls). The
// batch is validated before anything is mutated and is atomic: on any
// error — cancellation of ctx and a tripped budget in lim included — the
// journal rolls the database back to its pre-batch state before the error
// returns (a panic rolls back, then re-panics). Predicates derived by the
// program are rejected on both sides; deletions of absent tuples and
// insertions of present ones are no-ops.
func (cp *CompiledProgram) ApplyUpdatesCtx(ctx context.Context, db *storage.Database, inserts, deletes map[string][]storage.Tuple, lim Limits) (*UpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	return cp.applyUpdates(db, inserts, deletes, fixpointGuard(ctx, lim), lim)
}

func (cp *CompiledProgram) applyUpdates(db *storage.Database, inserts, deletes map[string][]storage.Tuple, gs *guardState, lim Limits) (res *UpdateResult, err error) {
	if !cp.ivm {
		return nil, ErrNotMaintenance
	}
	if err := cp.validateDeletes(db, deletes); err != nil {
		return nil, err
	}
	if err := cp.validateInserts(db, inserts); err != nil {
		return nil, err
	}

	ms := maintPool.Get().(*maintScratch)
	defer ms.release()

	// Effective deletions: the stored copies of present tuples, never the
	// caller's, deduplicated per predicate through the scratch's set. Each
	// list is sized from the batch, so none grows per row.
	delEff := make(map[string][]storage.Tuple)
	for pred, tuples := range deletes {
		rel := db.Relation(pred)
		if rel == nil || len(tuples) == 0 {
			continue
		}
		ms.seen.reset()
		eff := make([]storage.Tuple, 0, len(tuples))
		for _, t := range tuples {
			if st, ok := rel.Stored(t); ok && ms.seen.Add(st) {
				eff = append(eff, st)
			}
		}
		if len(eff) > 0 {
			delEff[pred] = eff
		}
	}

	j := storage.NewJournal(db)
	defer func() {
		if r := recover(); r != nil {
			j.Rollback()
			panic(r)
		}
	}()
	if len(delEff) == 0 {
		// Nothing to retract: the batch is its insert phase.
		res = &UpdateResult{}
		j.MarkInserts()
		res.BaseInserted, res.Stats, err = cp.applyInserts(db, ms, inserts, gs, lim)
	} else {
		res, err = cp.applyDRed(db, ms, j, inserts, delEff, gs, lim)
	}
	if err != nil {
		j.Rollback()
		return nil, err
	}
	res.BaseDeleted = delEff
	res.Journal = j
	return res, nil
}

// maintScratch is the bookkeeping of one batch's maintenance rounds: the
// round's task list and derivation buffers, the map of tuples each merge
// found new, the set that deduplicates a delete list, the over-deleted
// sets, and the accept tests of the three round kinds, each bound once to
// the relations it reads for the task being run (head, dead) — one pair
// serves a whole round because runTaskSet runs its tasks in order.
// applyUpdates takes one from maintPool and gives it back emptied, as
// emitVariant does with scratchPool, so a batch allocates what it stores,
// not its rounds. What it keeps is bounded by the program — one task per
// delta variant, one map key per derived predicate — the dedup set by the
// pooling bounds of RowSet.reset, and the over-deleted sets by
// maxKeptDeadRows.
type maintScratch struct {
	tasks []variantTask
	bufs  []*runScratch
	cur   map[string][]storage.Tuple
	seen  RowSet
	// od holds each derived predicate's over-deleted set (overDelete). The
	// pool serves every program, so a set may be of another arity.
	od map[string]*storage.Relation

	// head and dead are the running task's head relation and over-deleted
	// set: the relations the accept tests below read.
	head, dead *storage.Relation
	// absent admits a head head lacks (propagation), live one head holds
	// and dead does not yet (over-deletion), overDeleted one dead holds
	// (re-derivation).
	absent, live, overDeleted func(storage.Tuple) bool
}

// maintPool holds the scratches of the batches in flight: one per
// database being maintained at a time.
var maintPool = sync.Pool{New: func() any {
	ms := &maintScratch{cur: make(map[string][]storage.Tuple), od: make(map[string]*storage.Relation)}
	ms.absent = func(h storage.Tuple) bool { return ms.head == nil || !ms.head.Contains(h) }
	ms.live = func(h storage.Tuple) bool { return ms.head.Contains(h) && (ms.dead == nil || !ms.dead.Contains(h)) }
	ms.overDeleted = func(h storage.Tuple) bool { return ms.dead.Contains(h) }
	return ms
}}

// maxKeptDeadRows bounds the rows of room the over-deleted sets of one
// scratch keep between batches, all sets together: release drops each set
// that would take the total past it.
const maxKeptDeadRows = 4096

// release empties the scratch — no task, buffer, tuple or relation of the
// batch stays reachable from it — and returns it to the pool. Each kept
// over-deleted set is emptied by TruncateTo(0), which keeps its room.
func (ms *maintScratch) release() {
	clear(ms.tasks)
	ms.tasks = ms.tasks[:0]
	clear(ms.bufs)
	ms.bufs = ms.bufs[:0]
	clear(ms.cur)
	ms.seen.reset()
	kept := 0
	for pred, dead := range ms.od {
		if n := cap(dead.Tuples()); kept+n > maxKeptDeadRows {
			delete(ms.od, pred)
		} else {
			kept += n
			dead.TruncateTo(0)
		}
	}
	ms.head, ms.dead = nil, nil
	maintPool.Put(ms)
}

// validateDeletes rejects deletions into derived relations and tuples of
// the wrong width — before anything is mutated.
func (cp *CompiledProgram) validateDeletes(db *storage.Database, deletes map[string][]storage.Tuple) error {
	for pred, tuples := range deletes {
		if _, idb := cp.idbArity[pred]; idb {
			return fmt.Errorf("datalog: cannot delete from derived relation %s", pred)
		}
		rel := db.Relation(pred)
		if rel == nil {
			continue // deleting from a missing relation is a no-op
		}
		for _, t := range tuples {
			if len(t) != rel.Arity() {
				return &storage.ArityError{Pred: pred, Want: rel.Arity(), Got: len(t)}
			}
		}
	}
	return nil
}

// validateInserts rejects insertions into derived relations and tuples
// whose width disagrees with the relation (or, for a new relation, with the
// batch's first tuple) — before anything is mutated.
func (cp *CompiledProgram) validateInserts(db *storage.Database, updates map[string][]storage.Tuple) error {
	for pred, tuples := range updates {
		if _, idb := cp.idbArity[pred]; idb {
			return fmt.Errorf("datalog: cannot insert into derived relation %s", pred)
		}
		want := -1
		if rel := db.Relation(pred); rel != nil {
			want = rel.Arity()
		}
		for _, t := range tuples {
			if want < 0 {
				want = len(t)
			}
			if len(t) != want {
				return &storage.ArityError{Pred: pred, Want: want, Got: len(t)}
			}
		}
	}
	return nil
}

// applyDRed is the batch path of a batch that deletes: over-delete via the
// delta variants over the intact pre-delete database, remove, re-derive
// survivors with a bounded semi-naive pass, then run the insert phase
// (applyInserts).
func (cp *CompiledProgram) applyDRed(db *storage.Database, ms *maintScratch, j *storage.Journal, inserts, delEff map[string][]storage.Tuple, gs *guardState, lim Limits) (*UpdateResult, error) {
	res := &UpdateResult{}
	// work counts what the DRed passes derive, the over-deleted rows
	// included, against the batch's budgets; it is not what the batch adds
	// to the extents, which is only the insert phase's derivations.
	var work FixpointStats
	if err := cp.overDelete(db, ms, delEff, gs, lim, &work); err != nil {
		return nil, err
	}
	od := ms.od
	for pred, tuples := range delEff {
		j.RemoveAll(pred, tuples)
	}
	for pred, dead := range od {
		j.RemoveAll(pred, dead.Tuples())
	}
	j.MarkInserts()
	if err := cp.rederive(db, ms, od, gs, lim, &work); err != nil {
		return nil, err
	}
	for _, dead := range od {
		res.NetRetracted += dead.Len()
	}
	fresh, istats, err := cp.applyInserts(db, ms, inserts, gs, lim)
	if err != nil {
		return nil, err
	}
	res.BaseInserted = fresh
	res.Stats.Iterations = work.Iterations + istats.Iterations
	res.Stats.Derived = istats.Derived
	return res, nil
}

// overDelete computes the over-deleted set: the fixpoint of "some
// derivation of this present tuple uses a deleted or over-deleted tuple",
// seeded by the effective base deletions and evaluated — like every DRed
// over-approximation — against the still-intact pre-delete database. It
// fills ms.od: every row a round accepts is one the head relation holds, so
// each over-deleted set adopts the database's stored row, not a copy.
func (cp *CompiledProgram) overDelete(db *storage.Database, ms *maintScratch, delEff map[string][]storage.Tuple, gs *guardState, lim Limits, stats *FixpointStats) error {
	od := ms.od
	cur := delEff
	for len(cur) > 0 {
		ms.tasks = deltaTasks(ms.tasks[:0], cp.rules, cur, true)
		if len(ms.tasks) == 0 {
			break
		}
		if err := gs.barrier(); err != nil {
			return err
		}
		if err := checkFixpointBudget(*stats, lim); err != nil {
			return err
		}
		stats.Iterations++
		// Matches feed from the round's delta and every other atom reads the
		// intact database; an emitted head counts only if it is currently
		// materialized and not yet over-deleted.
		var err error
		ms.bufs, err = runTaskSet(ms.bufs, len(ms.tasks), func(i int) (*runScratch, error) {
			t := ms.tasks[i]
			pred := t.rule.headPred
			if ms.head, ms.dead = db.Relation(pred), od[pred]; ms.head == nil {
				return nil, nil
			}
			return emitVariant(t.v, t.delta, db, nil, gs, ms.live)
		})
		if err != nil {
			return err
		}
		ms.cur, _ = mergeRound(ms.cur, ms.tasks, ms.bufs, func(r *compiledRule) (*storage.Relation, *storage.Relation, error) {
			dead := od[r.headPred]
			if dead == nil || dead.Arity() != r.arity {
				dead = storage.NewRelation(r.headPred, r.arity)
				od[r.headPred] = dead
			}
			return dead, db.Relation(r.headPred), nil
		})
		cur = ms.cur
		for _, c := range cur {
			stats.Derived += len(c)
		}
	}
	return gs.failure()
}

// rederive restores the over-deleted tuples that still have a derivation in
// the post-removal database, removing each survivor from od as it is
// re-inserted — as the very row the batch removed, which the merge adopts
// from od. Round 0 runs the head-rooted support variants (or filtered
// full variants for Skolem heads); later rounds propagate re-insertions
// through the ordinary IDB delta variants, accepting only heads still
// missing — re-inserted tuples cannot derive anything genuinely new,
// because the pre-batch database was already a fixpoint over a superset.
func (cp *CompiledProgram) rederive(db *storage.Database, ms *maintScratch, od map[string]*storage.Relation, gs *guardState, lim Limits, stats *FixpointStats) error {
	missing := func(pred string) bool { return od[pred] != nil && od[pred].Len() > 0 }
	ms.tasks = ms.tasks[:0]
	for i := range cp.rules {
		r := &cp.rules[i]
		if !missing(r.headPred) {
			continue
		}
		sv := &cp.supports[i]
		if sv.rooted {
			if sv.v.empty {
				continue
			}
			// Round 0 only reads the over-deleted tuples; the merge after it
			// is the first to remove any.
			ms.tasks = append(ms.tasks, variantTask{rule: r, v: &sv.v, delta: od[r.headPred].Tuples()})
		} else if !r.full.empty {
			ms.tasks = append(ms.tasks, variantTask{rule: r, v: &r.full})
		}
	}
	for len(ms.tasks) > 0 {
		if err := gs.barrier(); err != nil {
			return err
		}
		if err := checkFixpointBudget(*stats, lim); err != nil {
			return err
		}
		stats.Iterations++
		var err error
		ms.bufs, err = runTaskSet(ms.bufs, len(ms.tasks), func(i int) (*runScratch, error) {
			t := ms.tasks[i]
			ms.dead = od[t.rule.headPred]
			return emitVariant(t.v, t.delta, db, nil, gs, ms.overDeleted)
		})
		if err != nil {
			return err
		}
		ms.cur, err = mergeRound(ms.cur, ms.tasks, ms.bufs, func(r *compiledRule) (*storage.Relation, *storage.Relation, error) {
			rel, err := db.Ensure(r.headPred, r.arity)
			return rel, od[r.headPred], err
		})
		if err != nil {
			return err
		}
		for pred, c := range ms.cur {
			for _, t := range c {
				od[pred].Remove(t)
			}
		}
		ms.tasks = slices.DeleteFunc(deltaTasks(ms.tasks[:0], cp.rules, ms.cur, false), func(t variantTask) bool {
			return !missing(t.rule.headPred)
		})
	}
	return gs.failure()
}
