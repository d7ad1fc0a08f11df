package datalog

import (
	"fmt"

	"repro/internal/storage"
)

// Per-shard semi-naive fixpoints and sharded IVM propagation over a
// storage.PartitionedDatabase.
//
// The fixpoint keeps the semi-naive structure of run() — round 0 fires full
// variants, later rounds fire delta variants on what the previous round
// derived — but both the data and the work are sharded:
//
//   - derived relations are shardedIDB: per-shard idbRel instances, each
//     with its own dedup set and maintained probe indexes, partitioned by
//     the first probed column (the column delta-joins route on);
//   - a round's tasks are rule-variant × shard: full variants fan out one
//     task per root shard, delta variants one task per shard of the
//     previous round's delta. Tasks buffer their derivations and only read
//     round-stable state, so they fan out across workers without locks;
//   - derivations merge at the round barrier only: each new tuple is routed
//     to its owner shard (storage.ShardOf of its partition-column value)
//     and becomes that shard's delta for the next round. Between barriers
//     no shard sees another shard's in-flight derivations — the per-shard
//     fixpoint is exact because semi-naive evaluation is insensitive to
//     which round a tuple arrives in, only that every rule eventually sees
//     it.
//
// Variant bodies run through joinStepsShard: probes on a relation's
// partition column route to the owner shard, everything else broadcasts.
// Unlike the one-shot plan path there are no exchange materializations
// inside a variant — the delta at the root is already shard-resident, which
// is the locality that matters in the delta-dominated rounds.

// shardedIDB is a per-Eval derived relation partitioned across shards: each
// shard is an idbRel with its own dedup set and maintained probe indexes.
type shardedIDB struct {
	arity   int
	partCol int
	shards  []*idbRel
}

func newShardedIDB(arity, partCol, shards int, probeCols []int) *shardedIDB {
	if partCol < 0 || partCol >= arity {
		partCol = 0
	}
	si := &shardedIDB{arity: arity, partCol: partCol, shards: make([]*idbRel, shards)}
	for i := range si.shards {
		si.shards[i] = newIDBRel(arity, probeCols)
	}
	return si
}

// ownerIdx returns the index of the shard owning the tuple (0 for nullary
// tuples).
func (si *shardedIDB) ownerIdx(t storage.Tuple) int {
	if si.arity == 0 {
		return 0
	}
	return storage.ShardOf(t[si.partCol], len(si.shards))
}

// contains reports membership, with the tuple's key already computed.
func (si *shardedIDB) contains(t storage.Tuple, key string) bool {
	return si.shards[si.ownerIdx(t)].seen[key]
}

// insert routes the tuple to its owner shard, reporting whether it was new.
func (si *shardedIDB) insert(t storage.Tuple) bool {
	return si.shards[si.ownerIdx(t)].insert(t)
}

// tuples returns all tuples, shard-major, as a fresh slice.
func (si *shardedIDB) tuples() []storage.Tuple {
	n := 0
	for _, ir := range si.shards {
		n += len(ir.tuples)
	}
	out := make([]storage.Tuple, 0, n)
	for _, ir := range si.shards {
		out = append(out, ir.tuples...)
	}
	return out
}

// idbPartCol is the partition-column policy for derived relations: the
// first (lowest) column some compiled step probes — the column delta-joins
// route on — and column 0 when nothing probes the predicate.
// PartitionHints is CompiledPlan.PartitionHints for a compiled program: the
// probe and scan-join columns of every rule variant (full, delta and IVM
// alike), EDB and IDB predicates both. Partitioning the EDB on these columns
// makes the per-shard fixpoint's probes shard-local.
func (cp *CompiledProgram) PartitionHints() map[string][]int {
	hints := make(map[string][]int)
	for i := range cp.rules {
		r := &cp.rules[i]
		collectPartitionHints(r.full.steps, hints)
		for j := range r.deltas {
			collectPartitionHints(r.deltas[j].steps, hints)
		}
		for j := range r.edbDeltas {
			collectPartitionHints(r.edbDeltas[j].steps, hints)
		}
	}
	return hints
}

func (cp *CompiledProgram) idbPartCol(pred string) int {
	if cols := cp.idbProbeCols[pred]; len(cols) > 0 {
		return cols[0]
	}
	return 0
}

// shardFixTask is one rule-variant execution scheduled in a sharded round:
// full variants may be restricted to one root shard, delta variants carry
// one shard's slice of the previous round's delta.
type shardFixTask struct {
	rule      *compiledRule
	v         *ruleVariant
	delta     []storage.Tuple
	rootShard int // -1: all shards
}

// resolveVariantSharded binds a variant's steps to their partitioned
// sources: the delta slice (as a one-shard scan) for the delta-root step,
// the sharded IDB state for derived predicates, and the partitioned EDB
// relation otherwise.
func (cp *CompiledProgram) resolveVariantSharded(pdb *storage.PartitionedDatabase, idb map[string]*shardedIDB, v *ruleVariant, delta []storage.Tuple) []shardSrc {
	srcs := make([]shardSrc, len(v.steps))
	for j := range v.steps {
		s := &v.steps[j]
		if j == 0 && delta != nil {
			srcs[j] = singleSrc(delta, s.probeCol >= 0)
			continue
		}
		if si, ok := idb[s.pred]; ok {
			n := len(si.shards)
			srcs[j].shards = n
			srcs[j].partCol = si.partCol
			srcs[j].tuples = make([][]storage.Tuple, n)
			if s.probeCol >= 0 {
				srcs[j].idx = make([]map[string][]int, n)
				srcs[j].local = s.probeCol == si.partCol
			}
			for i, ir := range si.shards {
				srcs[j].tuples[i] = ir.tuples
				if s.probeCol >= 0 {
					srcs[j].idx[i] = ir.idx[s.probeCol] // nil → scan fallback
				}
			}
			continue
		}
		rel := pdb.Relation(s.pred)
		if rel == nil {
			srcs[j].partCol = -1
			continue // missing predicate: empty relation
		}
		srcs[j] = shardSrcForRel(rel, s.probeCol)
	}
	return srcs
}

// runSharded executes the per-shard semi-naive loop; see the package
// comment above for the round/barrier structure. gs and lim are the
// governance hooks (nil/zero for unbounded runs), checked exactly as in
// run(): inside the variant loops and at every round barrier.
func (cp *CompiledProgram) runSharded(pdb *storage.PartitionedDatabase, workers int, gs *guardState, lim Limits) (map[string]*shardedIDB, FixpointStats, error) {
	P := pdb.NumShards()
	var stats FixpointStats
	idb := make(map[string]*shardedIDB, len(cp.idbArity))
	for pred, arity := range cp.idbArity {
		si := newShardedIDB(arity, cp.idbPartCol(pred), P, cp.idbProbeCols[pred])
		// A derived predicate may coincide with an EDB relation; its facts
		// seed the accumulated set, re-routed by the IDB partition column.
		if rel := pdb.Relation(pred); rel != nil {
			if rel.Arity() != arity {
				return nil, stats, &storage.ArityError{Pred: pred, Want: rel.Arity(), Got: arity}
			}
			for i := 0; i < rel.NumShards(); i++ {
				for _, t := range rel.Shard(i).Tuples() {
					si.insert(t)
				}
			}
		}
		idb[pred] = si
	}

	var tasks []shardFixTask
	for i := range cp.rules {
		r := &cp.rules[i]
		if r.full.empty {
			continue
		}
		tasks = append(tasks, cp.fullTasks(pdb, idb, r)...)
	}
	for len(tasks) > 0 {
		if err := gs.barrier(); err != nil {
			return nil, stats, err
		}
		if err := checkFixpointBudget(stats, lim); err != nil {
			return nil, stats, err
		}
		stats.Iterations++
		bufs, err := runTaskSet(len(tasks), workers, func(i int) ([]derivedTuple, error) {
			return cp.runVariantSharded(pdb, idb, tasks[i], gs.child())
		})
		if err != nil {
			return nil, stats, err
		}
		// Round barrier: route every new derivation to its owner shard; the
		// per-shard slices become the next round's per-shard deltas.
		delta := make(map[string][][]storage.Tuple)
		for i, buf := range bufs {
			pred := tasks[i].rule.headPred
			si := idb[pred]
			for _, d := range buf {
				o := si.ownerIdx(d.t)
				if si.shards[o].insertKeyed(d) {
					if delta[pred] == nil {
						delta[pred] = make([][]storage.Tuple, P)
					}
					delta[pred][o] = append(delta[pred][o], d.t)
					stats.Derived++
				}
			}
		}
		tasks = tasks[:0]
		for i := range cp.rules {
			r := &cp.rules[i]
			for j := range r.deltas {
				v := &r.deltas[j]
				if v.empty {
					continue
				}
				for _, part := range delta[v.deltaPred] {
					if len(part) > 0 {
						tasks = append(tasks, shardFixTask{rule: r, v: v, delta: part, rootShard: -1})
					}
				}
			}
		}
	}
	if err := gs.failure(); err != nil {
		return nil, stats, err
	}
	return idb, stats, nil
}

// fullTasks fans one rule's full variant out across its root relation's
// shards: one task per non-empty root shard for data-sharded roots, a
// single all-shard task when the root probes its partition column (owner
// routing confines it already), is existential, or has no source.
func (cp *CompiledProgram) fullTasks(pdb *storage.PartitionedDatabase, idb map[string]*shardedIDB, r *compiledRule) []shardFixTask {
	root := &r.full.steps[0]
	var n int
	var local bool
	var sizes []int
	if si, ok := idb[root.pred]; ok {
		n = len(si.shards)
		local = root.probeCol >= 0 && root.probeCol == si.partCol
		sizes = make([]int, n)
		for i, ir := range si.shards {
			sizes[i] = len(ir.tuples)
		}
	} else if rel := pdb.Relation(root.pred); rel != nil {
		n = rel.NumShards()
		local = root.probeCol >= 0 && root.probeCol == rel.PartitionColumn()
		sizes = make([]int, n)
		for i := 0; i < n; i++ {
			sizes[i] = rel.Shard(i).Len()
		}
	} else {
		return nil // missing root relation: the variant matches nothing
	}
	if root.existential || local {
		return []shardFixTask{{rule: r, v: &r.full, rootShard: -1}}
	}
	var tasks []shardFixTask
	for s := 0; s < n; s++ {
		if sizes[s] > 0 {
			tasks = append(tasks, shardFixTask{rule: r, v: &r.full, rootShard: s})
		}
	}
	return tasks
}

// runVariantSharded enumerates one variant's body matches through the
// sharded executor and buffers the derived head tuples, deduplicated
// against the buffer and the accumulated (round-stable) sharded relation.
func (cp *CompiledProgram) runVariantSharded(pdb *storage.PartitionedDatabase, idb map[string]*shardedIDB, t shardFixTask, g *evalGuard) ([]derivedTuple, error) {
	v := t.v
	srcs := cp.resolveVariantSharded(pdb, idb, v, t.delta)
	if t.rootShard >= 0 {
		srcs[0] = srcs[0].only(t.rootShard)
	}
	comp := compiledComponent{steps: v.steps}
	accum := idb[t.rule.headPred]
	frame := make([]string, v.numSlots)
	var buf []derivedTuple
	var bufSeen map[string]bool
	var evalErr error
	joinStepsShard(&comp, srcs, 0, len(v.steps), frame, g, func(frame []string) bool {
		if v.unsafeVar != "" {
			evalErr = fmt.Errorf("datalog: unbound head variable %s", v.unsafeVar)
			return false
		}
		tuple := buildHeadTuple(v.head, frame)
		k := tuple.Key()
		if accum.contains(tuple, k) || bufSeen[k] {
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

// EvalSharded runs the per-shard fixpoint over a partitioned EDB and
// returns an ordinary database containing the (flattened) EDB relations
// plus all derived relations — tuple-set-identical to Eval over the
// flattened input.
func (cp *CompiledProgram) EvalSharded(pdb *storage.PartitionedDatabase, workers int) (*storage.Database, error) {
	idb, _, err := cp.runSharded(pdb, workers, nil, Limits{})
	if err != nil {
		return nil, err
	}
	db := pdb.Flatten()
	for pred, si := range idb {
		rel, err := db.Ensure(pred, si.arity)
		if err != nil {
			return nil, err
		}
		for _, ir := range si.shards {
			for _, t := range ir.tuples {
				rel.Insert(t)
			}
		}
	}
	return db, nil
}

// EvalRelationSharded runs the per-shard fixpoint and returns just one
// relation's tuples — the sharded serving path, mirroring EvalRelation.
func (cp *CompiledProgram) EvalRelationSharded(pdb *storage.PartitionedDatabase, pred string, workers int) ([]storage.Tuple, FixpointStats, error) {
	return cp.evalRelationSharded(pdb, pred, workers, nil, Limits{})
}

// evalRelationSharded is the shared implementation behind
// EvalRelationSharded and EvalRelationShardedCtx.
func (cp *CompiledProgram) evalRelationSharded(pdb *storage.PartitionedDatabase, pred string, workers int, gs *guardState, lim Limits) ([]storage.Tuple, FixpointStats, error) {
	idb, stats, err := cp.runSharded(pdb, workers, gs, lim)
	if err != nil {
		return nil, stats, err
	}
	if si, ok := idb[pred]; ok {
		return si.tuples(), stats, nil
	}
	if rel := pdb.Relation(pred); rel != nil {
		return rel.Tuples(), stats, nil
	}
	return nil, stats, nil
}

// maintainDeltaSharded propagates a batch of inserts through the program's
// delta variants over a partitioned database, updating its derived
// relations in place — the sharded form of MaintainDeltaParallel. The
// rounds run per-shard: the batch is split by each relation's partition
// column, every task reads one shard's slice of the delta, and new
// derivations are routed to their owner shards at the round barrier. Like
// the unpartitioned path, db must already contain the delta tuples and the
// accumulated derived relations; it returns the newly derived tuples per
// predicate. On a guard or budget failure the database holds a partially
// propagated state — callers wanting atomicity (ivm.Maintainer) snapshot
// and roll back around it.
func (cp *CompiledProgram) maintainDeltaSharded(pdb *storage.PartitionedDatabase, delta map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (map[string][]storage.Tuple, FixpointStats, error) {
	var stats FixpointStats
	if !cp.ivm {
		return nil, stats, ErrNotMaintenance
	}
	P := pdb.NumShards()
	derived := make(map[string][]storage.Tuple)
	cur := make(map[string][][]storage.Tuple, len(delta))
	for pred, tuples := range delta {
		cur[pred] = splitByShard(pdb, pred, tuples, P)
	}
	for {
		var tasks []shardFixTask
		for i := range cp.rules {
			r := &cp.rules[i]
			for _, variants := range [2][]ruleVariant{r.edbDeltas, r.deltas} {
				for j := range variants {
					v := &variants[j]
					if v.empty {
						continue
					}
					for _, part := range cur[v.deltaPred] {
						if len(part) > 0 {
							tasks = append(tasks, shardFixTask{rule: r, v: v, delta: part, rootShard: -1})
						}
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
			return cp.maintVariantSharded(pdb, tasks[i], gs.child())
		})
		if err != nil {
			return nil, stats, err
		}
		next := make(map[string][][]storage.Tuple)
		for i, buf := range bufs {
			pred := tasks[i].rule.headPred
			rel, err := pdb.Ensure(pred, tasks[i].rule.arity, cp.idbPartCol(pred))
			if err != nil {
				return nil, stats, err
			}
			for _, d := range buf {
				if rel.Insert(d.t) {
					if next[pred] == nil {
						next[pred] = make([][]storage.Tuple, P)
					}
					o := 0
					if rel.Arity() > 0 {
						o = storage.ShardOf(d.t[rel.PartitionColumn()], P)
					}
					next[pred][o] = append(next[pred][o], d.t)
					derived[pred] = append(derived[pred], d.t)
					stats.Derived++
				}
			}
		}
		cur = next
	}
}

// splitByShard buckets a delta batch by the relation's partition column; a
// missing relation buckets by column 0 (where Ensure will create it).
func splitByShard(pdb *storage.PartitionedDatabase, pred string, tuples []storage.Tuple, P int) [][]storage.Tuple {
	pc := 0
	if rel := pdb.Relation(pred); rel != nil {
		pc = rel.PartitionColumn()
	}
	parts := make([][]storage.Tuple, P)
	for _, t := range tuples {
		s := 0
		if len(t) > 0 {
			s = storage.ShardOf(t[pc], P)
		}
		parts[s] = append(parts[s], t)
	}
	return parts
}

// maintVariantSharded is maintVariant over a partitioned database: every
// source — including the accumulated derived relations — resolves from
// pdb, with shard-local probes on partition columns.
func (cp *CompiledProgram) maintVariantSharded(pdb *storage.PartitionedDatabase, t shardFixTask, g *evalGuard) ([]derivedTuple, error) {
	v := t.v
	srcs := make([]shardSrc, len(v.steps))
	for j := range v.steps {
		s := &v.steps[j]
		if j == 0 {
			srcs[j] = singleSrc(t.delta, s.probeCol >= 0)
			continue
		}
		rel := pdb.Relation(s.pred)
		if rel == nil {
			srcs[j].partCol = -1
			continue // missing predicate: empty relation
		}
		srcs[j] = shardSrcForRel(rel, s.probeCol)
	}
	headRel := pdb.Relation(t.rule.headPred)
	comp := compiledComponent{steps: v.steps}
	frame := make([]string, v.numSlots)
	var buf []derivedTuple
	var bufSeen map[string]bool
	var evalErr error
	joinStepsShard(&comp, srcs, 0, len(v.steps), frame, g, func(frame []string) bool {
		if v.unsafeVar != "" {
			evalErr = fmt.Errorf("datalog: unbound head variable %s", v.unsafeVar)
			return false
		}
		tuple := buildHeadTuple(v.head, frame)
		k := tuple.Key()
		if (headRel != nil && headRel.ContainsKeyed(tuple, k)) || bufSeen[k] {
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

// ApplyInsertsSharded is ApplyInserts over a partitioned database: it
// validates the updates, inserts the facts (routing each to its owner
// shard, creating missing relations partitioned by column 0), and
// propagates the new ones through maintainDeltaSharded.
func (cp *CompiledProgram) ApplyInsertsSharded(pdb *storage.PartitionedDatabase, updates map[string][]storage.Tuple, workers int) (fresh, derived map[string][]storage.Tuple, stats FixpointStats, err error) {
	return cp.applyInsertsSharded(pdb, updates, workers, nil, Limits{})
}

// applyInsertsSharded is the shared implementation behind
// ApplyInsertsSharded and ApplyInsertsShardedCtx. Validation errors leave
// pdb unchanged; a guard or budget failure leaves it partially updated
// (callers wanting atomicity snapshot and roll back).
func (cp *CompiledProgram) applyInsertsSharded(pdb *storage.PartitionedDatabase, updates map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (fresh, derived map[string][]storage.Tuple, stats FixpointStats, err error) {
	if !cp.ivm {
		return nil, nil, stats, ErrNotMaintenance
	}
	for pred, tuples := range updates {
		if _, idb := cp.idbArity[pred]; idb {
			return nil, nil, stats, fmt.Errorf("datalog: cannot insert into derived relation %s", pred)
		}
		want := -1
		if rel := pdb.Relation(pred); rel != nil {
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
		rel, err := pdb.Ensure(pred, len(tuples[0]), 0)
		if err != nil {
			return nil, nil, stats, err
		}
		for _, t := range tuples {
			if rel.Insert(t) {
				fresh[pred] = append(fresh[pred], t)
			}
		}
	}
	derived, stats, err = cp.maintainDeltaSharded(pdb, fresh, workers, gs, lim)
	if err != nil {
		return nil, nil, stats, err
	}
	return fresh, derived, stats, nil
}
