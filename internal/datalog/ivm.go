package datalog

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Incremental view maintenance. A program compiled with CompileProgramIVM
// carries one delta variant per EDB body occurrence in addition to the
// per-IDB-occurrence variants the semi-naive fixpoint uses. MaintainDelta
// exploits them to propagate a batch of base-relation inserts into already
// materialized derived relations without re-running the fixpoint:
//
//   - the database itself is the maintenance state: it holds the base
//     relations and the accumulated derived relations side by side (the
//     shape CompiledProgram.Eval returns), and new derivations are inserted
//     straight into it, incrementally maintaining its column indexes
//     (storage.Relation.Insert appends to built indexes in O(arity));
//   - the seed round fires exactly the EDB delta variants whose predicate
//     gained tuples, with the batch at the join root and every other atom
//     reading the post-batch database — any derivation that uses at least
//     one new base tuple is found, and derivations that use none were
//     already present (insertion is monotone; deletions take the
//     non-monotone counting/DRed path in delete.go via ApplyUpdates);
//   - subsequent rounds are ordinary semi-naive: the IDB delta variants
//     fire on whatever the previous round newly derived, until quiescence;
//   - within a round the database is only read (derivations are buffered
//     per task and merged between rounds), so rounds fan out across
//     goroutines exactly like fixpoint rounds.
//
// Work per batch is therefore proportional to the consequences of the
// delta, not to the size of the database.

// ErrNotMaintenance reports a MaintainDelta call on a program compiled
// without EDB delta variants.
var ErrNotMaintenance = errors.New("datalog: program not compiled for maintenance (use CompileProgramIVM)")

// maintTask is one delta-variant execution scheduled in a maintenance
// round: the variant plus the tuple batch feeding its root.
type maintTask struct {
	rule  *compiledRule
	v     *ruleVariant
	delta []storage.Tuple
}

// MaintainDelta propagates a batch of inserts through the program's delta
// variants, updating db's derived relations in place. db must hold the
// accumulated derived relations alongside the base relations (the database
// CompiledProgram.Eval returns, or one maintained by earlier calls), and
// the delta tuples must already be inserted into db — ApplyInserts does
// both steps for callers starting from raw updates. It returns the newly
// derived tuples per predicate, in derivation order.
func (cp *CompiledProgram) MaintainDelta(db *storage.Database, delta map[string][]storage.Tuple) (map[string][]storage.Tuple, FixpointStats, error) {
	return cp.MaintainDeltaParallel(db, delta, 1)
}

// MaintainDeltaParallel is MaintainDelta with each round's delta-variant
// executions fanned out across up to workers goroutines; results are
// identical to the sequential propagation.
func (cp *CompiledProgram) MaintainDeltaParallel(db *storage.Database, delta map[string][]storage.Tuple, workers int) (map[string][]storage.Tuple, FixpointStats, error) {
	return cp.maintainDelta(db, delta, workers, nil, Limits{})
}

// maintainDelta is the shared implementation behind MaintainDeltaParallel
// and applyInserts. On a guard or budget failure the database holds a
// partially propagated state — callers wanting atomicity (ivm.Maintainer)
// snapshot and roll back around it.
func (cp *CompiledProgram) maintainDelta(db *storage.Database, delta map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (map[string][]storage.Tuple, FixpointStats, error) {
	var stats FixpointStats
	if !cp.ivm {
		return nil, stats, ErrNotMaintenance
	}
	derived := make(map[string][]storage.Tuple)
	cur := delta
	for {
		var tasks []maintTask
		for i := range cp.rules {
			r := &cp.rules[i]
			for _, variants := range [2][]ruleVariant{r.edbDeltas, r.deltas} {
				for j := range variants {
					v := &variants[j]
					if v.empty {
						continue
					}
					if d := cur[v.deltaPred]; len(d) > 0 {
						tasks = append(tasks, maintTask{rule: r, v: v, delta: d})
					}
				}
			}
		}
		if len(tasks) == 0 {
			if err := gs.failure(); err != nil {
				return nil, stats, err
			}
			return derived, stats, nil
		}
		if err := gs.barrier(); err != nil {
			return nil, stats, err
		}
		if err := checkFixpointBudget(stats, lim); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		bufs, err := runTaskSet(len(tasks), workers, func(i int) ([]derivedTuple, error) {
			return cp.maintVariant(db, tasks[i], gs.child())
		})
		if err != nil {
			return nil, stats, err
		}
		next := make(map[string][]storage.Tuple)
		for i, buf := range bufs {
			pred := tasks[i].rule.headPred
			rel, err := db.Ensure(pred, tasks[i].rule.arity)
			if err != nil {
				return nil, stats, err
			}
			for _, d := range buf {
				if rel.Insert(d.t) {
					next[pred] = append(next[pred], d.t)
					derived[pred] = append(derived[pred], d.t)
					stats.Derived++
				}
			}
		}
		cur = next
	}
}

// ApplyInserts applies a batch of updates to db — inserting the facts,
// creating missing relations — and propagates the newly inserted ones
// through the delta plans (MaintainDeltaParallel). Predicates derived by
// the program are rejected: their contents are maintained, not asserted.
// Updates are validated against the schema before anything is mutated, so
// an error leaves db unchanged. It returns the per-predicate base tuples
// that were actually new, the newly derived tuples per predicate, and the
// propagation stats.
func (cp *CompiledProgram) ApplyInserts(db *storage.Database, updates map[string][]storage.Tuple, workers int) (fresh, derived map[string][]storage.Tuple, stats FixpointStats, err error) {
	return cp.applyInserts(db, updates, workers, nil, Limits{})
}

// applyInserts is the shared implementation behind ApplyInserts and
// ApplyInsertsCtx. Validation errors leave db unchanged; a guard or budget
// failure leaves it partially updated (callers wanting atomicity snapshot
// and roll back).
func (cp *CompiledProgram) applyInserts(db *storage.Database, updates map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (fresh, derived map[string][]storage.Tuple, stats FixpointStats, err error) {
	if !cp.ivm {
		return nil, nil, stats, ErrNotMaintenance
	}
	for pred, tuples := range updates {
		if _, idb := cp.idbArity[pred]; idb {
			return nil, nil, stats, fmt.Errorf("datalog: cannot insert into derived relation %s", pred)
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
				return nil, nil, stats, &storage.ArityError{Pred: pred, Want: want, Got: len(t)}
			}
		}
	}
	fresh = make(map[string][]storage.Tuple)
	for pred, tuples := range updates {
		if len(tuples) == 0 {
			continue
		}
		rel, err := db.Ensure(pred, len(tuples[0]))
		if err != nil {
			return nil, nil, stats, err
		}
		for _, t := range tuples {
			if rel.Insert(t) {
				fresh[pred] = append(fresh[pred], t)
			}
		}
	}
	derived, stats, err = cp.maintainDelta(db, fresh, workers, gs, lim)
	if err != nil {
		return nil, nil, stats, err
	}
	return fresh, derived, stats, nil
}

// maintVariant enumerates one delta variant's matches over the live
// database and buffers the derived head tuples, deduplicated against both
// the buffer and the accumulated head relation. Every source — including
// the derived relations — resolves from db, with indexed probes whenever
// the relation's column indexes are current (frozen databases keep them
// current across maintained inserts).
func (cp *CompiledProgram) maintVariant(db *storage.Database, t maintTask, g *evalGuard) ([]derivedTuple, error) {
	v := t.v
	srcs := make([]stepSrc, len(v.steps))
	for j := range v.steps {
		s := &v.steps[j]
		if j == 0 {
			srcs[j].tuples = t.delta // the delta is scanned: it is the small side
			continue
		}
		rel := db.Relation(s.pred)
		if rel == nil {
			continue // missing predicate: empty relation
		}
		srcs[j].tuples = rel.Tuples()
		if s.probeCol >= 0 {
			if idx, ok := rel.ColumnIndex(s.probeCol); ok {
				srcs[j].idx = idx
			}
		}
	}
	headRel := db.Relation(t.rule.headPred)
	comp := compiledComponent{steps: v.steps}
	frame := make([]string, v.numSlots)
	var buf []derivedTuple
	var bufSeen map[string]bool
	var evalErr error
	joinSteps(&comp, srcs, 0, frame, g, func(frame []string) bool {
		if v.unsafeVar != "" {
			evalErr = fmt.Errorf("datalog: unbound head variable %s", v.unsafeVar)
			return false
		}
		tuple := buildHeadTuple(v.head, frame)
		k := tuple.Key()
		if (headRel != nil && headRel.ContainsKey(k)) || bufSeen[k] {
			return true
		}
		if bufSeen == nil {
			bufSeen = make(map[string]bool)
		}
		bufSeen[k] = true
		buf = append(buf, derivedTuple{t: tuple, key: k})
		if g.emitRow() {
			return false
		}
		return true
	})
	return buf, evalErr
}
