package datalog

import (
	"context"
	"fmt"
	"slices"

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
// the base relations and in the derived extents. Replaying the result into
// a mirror must apply retractions before derivations (an insert in the same
// batch may legitimately re-derive a tuple the delete phase retracted).
type UpdateResult struct {
	// BaseInserted / BaseDeleted are the base tuples that were actually
	// fresh / actually present, per predicate.
	BaseInserted map[string][]storage.Tuple
	BaseDeleted  map[string][]storage.Tuple
	// Derived / Retracted are the net derived-extent changes.
	Derived   map[string][]storage.Tuple
	Retracted map[string][]storage.Tuple
	Stats     FixpointStats
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

	// Effective deletions: the stored copies of present tuples, never the
	// caller's, deduplicated per predicate through a relation that only
	// reads them. Both are sized from the batch, so neither grows per row.
	delEff := make(map[string][]storage.Tuple)
	for pred, tuples := range deletes {
		rel := db.Relation(pred)
		if rel == nil || len(tuples) == 0 {
			continue
		}
		seen := storage.NewRelation(pred, rel.Arity())
		seen.Grow(len(tuples))
		eff := make([]storage.Tuple, 0, len(tuples))
		for _, t := range tuples {
			if st, ok := rel.Stored(t); ok && seen.Adopt(st) {
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
		res.BaseInserted, res.Derived, res.Stats, err = cp.applyInserts(db, inserts, gs, lim)
	} else {
		res, err = cp.applyDRed(db, j, inserts, delEff, gs, lim)
	}
	if err != nil {
		j.Rollback()
		return nil, err
	}
	res.BaseDeleted = delEff
	return res, nil
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
func (cp *CompiledProgram) applyDRed(db *storage.Database, j *storage.Journal, inserts, delEff map[string][]storage.Tuple, gs *guardState, lim Limits) (*UpdateResult, error) {
	res := &UpdateResult{Retracted: make(map[string][]storage.Tuple)}
	od, err := cp.overDelete(db, delEff, gs, lim, &res.Stats)
	if err != nil {
		return nil, err
	}
	for pred, tuples := range delEff {
		j.RemoveAll(pred, tuples)
	}
	for pred, dead := range od {
		j.RemoveAll(pred, dead.Tuples())
	}
	j.MarkInserts()
	if err := cp.rederive(db, od, gs, lim, &res.Stats); err != nil {
		return nil, err
	}
	for pred, dead := range od {
		if dead.Len() > 0 {
			res.Retracted[pred] = append(res.Retracted[pred], dead.Tuples()...)
		}
	}
	fresh, derived, istats, err := cp.applyInserts(db, inserts, gs, lim)
	if err != nil {
		return nil, err
	}
	res.BaseInserted = fresh
	res.Derived = derived
	res.Stats.Iterations += istats.Iterations
	res.Stats.Derived += istats.Derived
	return res, nil
}

// overDelete computes the over-deleted set: the fixpoint of "some
// derivation of this present tuple uses a deleted or over-deleted tuple",
// seeded by the effective base deletions and evaluated — like every DRed
// over-approximation — against the still-intact pre-delete database. Each
// over-deleted set is a relation that adopts the rows its rounds derived.
func (cp *CompiledProgram) overDelete(db *storage.Database, delEff map[string][]storage.Tuple, gs *guardState, lim Limits, stats *FixpointStats) (map[string]*storage.Relation, error) {
	od := make(map[string]*storage.Relation)
	var tasks []variantTask
	cur := delEff
	for len(cur) > 0 {
		tasks = deltaTasks(tasks[:0], cp.rules, cur, true)
		if len(tasks) == 0 {
			break
		}
		if err := gs.barrier(); err != nil {
			return nil, err
		}
		if err := checkFixpointBudget(*stats, lim); err != nil {
			return nil, err
		}
		stats.Iterations++
		// Matches feed from the round's delta and every other atom reads the
		// intact database; an emitted head counts only if it is currently
		// materialized and not yet over-deleted.
		bufs, err := runTaskSet(len(tasks), func(i int) (*runScratch, error) {
			t := tasks[i]
			pred := t.rule.headPred
			headRel, dead := db.Relation(pred), od[pred]
			if headRel == nil {
				return nil, nil
			}
			return emitVariant(t.v, t.delta, db, nil, gs, func(h storage.Tuple) bool {
				return headRel.Contains(h) && (dead == nil || !dead.Contains(h))
			})
		})
		if err != nil {
			return nil, err
		}
		cur, _ = mergeRound(tasks, bufs, func(r *compiledRule) (*storage.Relation, error) {
			if od[r.headPred] == nil {
				od[r.headPred] = storage.NewRelation(r.headPred, r.arity)
			}
			return od[r.headPred], nil
		})
		for _, c := range cur {
			stats.Derived += len(c)
		}
	}
	if err := gs.failure(); err != nil {
		return nil, err
	}
	return od, nil
}

// rederive restores the over-deleted tuples that still have a derivation in
// the post-removal database, removing each survivor from od as it is
// re-inserted. Round 0 runs the head-rooted support variants (or filtered
// full variants for Skolem heads); later rounds propagate re-insertions
// through the ordinary IDB delta variants, accepting only heads still
// missing — re-inserted tuples cannot derive anything genuinely new,
// because the pre-batch database was already a fixpoint over a superset.
func (cp *CompiledProgram) rederive(db *storage.Database, od map[string]*storage.Relation, gs *guardState, lim Limits, stats *FixpointStats) error {
	missing := func(pred string) bool { return od[pred] != nil && od[pred].Len() > 0 }
	var tasks []variantTask
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
			tasks = append(tasks, variantTask{rule: r, v: &sv.v, delta: od[r.headPred].Tuples()})
		} else if !r.full.empty {
			tasks = append(tasks, variantTask{rule: r, v: &r.full})
		}
	}
	for len(tasks) > 0 {
		if err := gs.barrier(); err != nil {
			return err
		}
		if err := checkFixpointBudget(*stats, lim); err != nil {
			return err
		}
		stats.Iterations++
		bufs, err := runTaskSet(len(tasks), func(i int) (*runScratch, error) {
			t := tasks[i]
			dead := od[t.rule.headPred]
			return emitVariant(t.v, t.delta, db, nil, gs,
				func(h storage.Tuple) bool { return dead.Contains(h) })
		})
		if err != nil {
			return err
		}
		cur, err := mergeRound(tasks, bufs, func(r *compiledRule) (*storage.Relation, error) {
			return db.Ensure(r.headPred, r.arity)
		})
		if err != nil {
			return err
		}
		for pred, c := range cur {
			for _, t := range c {
				od[pred].Remove(t)
			}
		}
		tasks = slices.DeleteFunc(deltaTasks(tasks[:0], cp.rules, cur, false), func(t variantTask) bool {
			return !missing(t.rule.headPred)
		})
	}
	return gs.failure()
}
