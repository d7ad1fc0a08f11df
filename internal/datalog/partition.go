package datalog

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Sharded plan execution over a storage.PartitionedDatabase. The compiled
// plan is unchanged — the same slot frames, access paths and join order —
// but every step resolves to per-shard tuple slices and per-shard indexes,
// and the executor exploits the physical partitioning two ways:
//
//   - shard-local probes: a step probing its relation's partition column
//     routes straight to the owner shard (storage.ShardOf of the probe
//     value), touching an index 1/P-th the size of the monolithic one. Any
//     other access path broadcasts across the shards, which is exactly the
//     unpartitioned semantics — correctness never depends on the partition
//     column, only locality.
//
//   - exchange (repartition) steps: consecutive joins probing on the same
//     routing slot run as one shard-local segment; when the join key
//     changes, the executor materialises the intermediate frames and
//     re-buckets them by the hash of the new key slot. Each downstream task
//     then probes only its own shard, turning scattered cross-index lookups
//     into shard-major sweeps. An exchange materialises the frames crossing
//     it (memory proportional to that intermediate result), the classical
//     cost of a radix-partitioned join.
//
// Per-shard fixpoints and sharded IVM propagation build on this executor in
// partitionprog.go.

// shardSrc is one step's execution source over a partitioned database:
// per-shard tuple slices plus, when the step probes and the shard's index is
// built, the per-shard probe index. local marks probes on the relation's
// partition column — the ones the executor may route to a single owner
// shard. A missing predicate has shards == 0 and matches nothing.
type shardSrc struct {
	tuples  [][]storage.Tuple
	idx     []map[string][]int // non-nil (per shard, entries may be nil) iff the step probes
	local   bool
	partCol int // the relation's partition column; -1 when the predicate is missing
	shards  int
}

// resolveSharded binds the component's steps to pdb, the partitioned
// analogue of CompiledPlan.resolve.
func resolveSharded(pdb *storage.PartitionedDatabase, c *compiledComponent) []shardSrc {
	srcs := make([]shardSrc, len(c.steps))
	for j := range c.steps {
		s := &c.steps[j]
		rel := pdb.Relation(s.pred)
		if rel == nil {
			srcs[j].partCol = -1
			continue
		}
		srcs[j] = shardSrcForRel(rel, s.probeCol)
	}
	return srcs
}

// shardSrcForRel builds one step's source over a partitioned relation:
// per-shard tuple slices plus the per-shard probe index when built. The
// fixpoint and maintenance resolvers (partitionprog.go) share it.
func shardSrcForRel(rel *storage.PartitionedRelation, probeCol int) shardSrc {
	n := rel.NumShards()
	src := shardSrc{shards: n, partCol: rel.PartitionColumn(), tuples: make([][]storage.Tuple, n)}
	if probeCol >= 0 {
		src.idx = make([]map[string][]int, n)
		src.local = probeCol == src.partCol
	}
	for i := 0; i < n; i++ {
		shard := rel.Shard(i)
		src.tuples[i] = shard.Tuples()
		if probeCol >= 0 {
			if idx, ok := shard.ColumnIndex(probeCol); ok {
				src.idx[i] = idx
			}
		}
	}
	return src
}

// singleSrc wraps one tuple slice as a one-shard source — the delta variant
// roots of the per-shard fixpoint, and the per-root-shard tasks of the plan
// executor, both substitute it for a step's source.
func singleSrc(tuples []storage.Tuple, probes bool) shardSrc {
	src := shardSrc{tuples: [][]storage.Tuple{tuples}, partCol: -1, shards: 1}
	if probes {
		src.idx = []map[string][]int{nil} // scan fallback: ops re-check the probed column
	}
	return src
}

// only restricts a source to one shard, for per-root-shard tasks. The view
// is non-local: the task enumerates exactly that shard's candidates.
func (src shardSrc) only(s int) shardSrc {
	out := shardSrc{tuples: src.tuples[s : s+1], partCol: -1, shards: 1}
	if src.idx != nil {
		out.idx = src.idx[s : s+1]
	}
	return out
}

// joinStepsShard enumerates the component's matches from depth up to stop
// (stop == len(c.steps) for a full run; segment executions stop at the next
// exchange), invoking yield with the shared frame for each frame reaching
// stop. It reports false iff yield asked to stop.
//
// A local probe routes to the owner shard of the probe value; every other
// access path visits the shards in order, which preserves the unpartitioned
// candidate semantics (the union of the shards is the relation).
func joinStepsShard(c *compiledComponent, srcs []shardSrc, depth, stop int, frame []string, g *evalGuard, yield func([]string) bool) bool {
	if depth == stop {
		return yield(frame)
	}
	step := &c.steps[depth]
	src := &srcs[depth]
	st := shardStep{c: c, srcs: srcs, depth: depth, stop: stop, g: g}
	if step.probeCol >= 0 {
		val := step.probeConst
		if step.probeSlot >= 0 {
			val = frame[step.probeSlot]
		}
		if src.local {
			return st.shard(storage.ShardOf(val, src.shards), val, frame, yield)
		}
		for s := 0; s < src.shards; s++ {
			if !st.shard(s, val, frame, yield) {
				return false
			}
			if st.done {
				return true
			}
		}
		return true
	}
	for s := 0; s < src.shards; s++ {
		if !st.scan(s, frame, yield) {
			return false
		}
		if st.done {
			return true
		}
	}
	return true
}

// shardStep is one depth's candidate-loop state, shared across the shards
// the step visits: the dedup set must span shards (identical bindings can
// surface from different shards) and done records an existential step's
// first match so the cross-shard loop stops like a single candidate loop.
type shardStep struct {
	c           *compiledComponent
	srcs        []shardSrc
	depth, stop int
	seen        map[string]bool
	keyBuf      []byte
	done        bool
	g           *evalGuard // may be nil: no cancellation checks
}

// shard runs the step's candidate loop over one shard, probing its index
// when built and falling back to a scan (with the probed column re-checked
// by ops) when not.
func (st *shardStep) shard(s int, val string, frame []string, yield func([]string) bool) bool {
	src := &st.srcs[st.depth]
	tuples := src.tuples[s]
	if idx := src.idx[s]; idx != nil {
		return st.loop(tuples, idx[val], true, frame, yield)
	}
	return st.loop(tuples, nil, false, frame, yield)
}

// scan runs the step's candidate loop over one shard without a probe.
func (st *shardStep) scan(s int, frame []string, yield func([]string) bool) bool {
	return st.loop(st.srcs[st.depth].tuples[s], nil, false, frame, yield)
}

func (st *shardStep) loop(tuples []storage.Tuple, positions []int, usePositions bool, frame []string, yield func([]string) bool) bool {
	step := &st.c.steps[st.depth]
	ops := step.ops
	n := len(tuples)
	if usePositions {
		n = len(positions)
		ops = step.opsIndexed
	}
	for i := 0; i < n; i++ {
		if st.g != nil && st.g.tick() {
			return false
		}
		t := tuples[i]
		if usePositions {
			t = tuples[positions[i]]
		}
		if !applyStep(step, ops, t, frame) {
			continue
		}
		if step.dedup {
			st.keyBuf = appendBindKey(st.keyBuf[:0], step, t)
			if st.seen == nil {
				st.seen = make(map[string]bool)
			}
			if st.seen[string(st.keyBuf)] {
				continue
			}
			st.seen[string(st.keyBuf)] = true
		}
		if !joinStepsShard(st.c, st.srcs, st.depth+1, st.stop, frame, st.g, yield) {
			return false
		}
		if step.existential {
			st.done = true // binds nothing: the first match decides
			return true
		}
	}
	return true
}

// planSegment is a run of consecutive steps executed shard-locally between
// exchanges: frames enter it bucketed by ShardOf(frame[routeSlot]) (routeSlot
// < 0 for the root segment, whose tasks are root shards instead).
type planSegment struct {
	from, to  int
	routeSlot int
}

// shardSegments cuts the component's steps at every join-key change: a step
// probing its partition column from a slot other than the current routing
// slot opens a new segment, preceded by an exchange on that slot. It also
// returns the routing slot in force after the last step — when that slot is
// a head slot, final per-task results are provably disjoint and merge
// without cross-task dedup.
//
// With one shard there is nothing to re-bucket, so the whole plan is a
// single segment.
func shardSegments(c *compiledComponent, srcs []shardSrc, shards int) ([]planSegment, int) {
	cur := -1
	root := &c.steps[0]
	if srcs[0].local && root.probeSlot >= 0 {
		cur = root.probeSlot
	} else if !srcs[0].local && srcs[0].partCol >= 0 {
		// Data-sharded root: the slot carrying the root relation's partition
		// column (bound or checked by the root step) routes every frame of a
		// root-shard task back to that shard.
		for _, op := range root.ops {
			if op.col == srcs[0].partCol && (op.action == colBind || op.action == colCheckSlot) {
				cur = op.slot
				break
			}
		}
	}
	segs := []planSegment{{from: 0, routeSlot: -1}}
	if shards > 1 {
		for d := 1; d < len(c.steps); d++ {
			s := &c.steps[d]
			if srcs[d].local && s.probeSlot >= 0 && s.probeSlot != cur {
				segs[len(segs)-1].to = d
				segs = append(segs, planSegment{from: d, routeSlot: s.probeSlot})
				cur = s.probeSlot
			}
		}
	}
	segs[len(segs)-1].to = len(c.steps)
	return segs, cur
}

// runTasks executes fn(0..n-1) across up to workers goroutines, pulling task
// indexes from a shared atomic counter. workers <= 1 runs inline.
func runTasks(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// segResult is one task's output for one segment: frames bucketed for the
// next exchange, or (in the final segment) the task's distinct projections.
type segResult struct {
	buckets [][]string // per destination shard, flat frame arena
	rows    [][]string
}

// enumerateComponentSharded is enumerateComponent over a partitioned
// database: stage 0 fans out per root shard (or runs as one task when the
// root probe already routes to a single owner shard), each exchange
// re-buckets the intermediate frames by the next segment's routing slot,
// and each later stage runs one task per non-empty shard.
func (p *CompiledPlan) enumerateComponentSharded(c *compiledComponent, pdb *storage.PartitionedDatabase, workers int, base []string, project func([]string) []string, gs *guardState) [][]string {
	srcs := resolveSharded(pdb, c)
	P := pdb.NumShards()
	segs, finalRoute := shardSegments(c, srcs, P)
	root := &c.steps[0]
	rootSrc := &srcs[0]
	stride := p.numSlots

	// Stage-0 tasks: one per non-empty root shard for data-sharded roots; a
	// single task when the root probes its partition column (owner routing
	// already confines it to one shard) or is existential (its first match
	// decides, which striding would re-discover P times).
	var tasks []int
	if root.existential || rootSrc.local {
		tasks = []int{-1}
	} else {
		for s := 0; s < rootSrc.shards; s++ {
			if len(rootSrc.tuples[s]) > 0 {
				tasks = append(tasks, s)
			}
		}
	}
	if len(tasks) == 0 {
		return nil
	}

	runSeg := func(k int, taskSrcs []shardSrc, startFrames []string) segResult {
		seg := segs[k]
		last := k == len(segs)-1
		g := gs.child()
		var res segResult
		var emitSeen map[string]bool
		var keyBuf []byte
		nextRoute := -1
		if !last {
			res.buckets = make([][]string, P)
			nextRoute = segs[k+1].routeSlot
		}
		yield := func(frame []string) bool {
			if !last {
				s := storage.ShardOf(frame[nextRoute], P)
				res.buckets[s] = append(res.buckets[s], frame...)
				return true
			}
			// Head tuples are injective in the head-slot values, so the
			// frame key decides newness before the projection materialises.
			keyBuf = keyBuf[:0]
			for _, s := range c.headSlots {
				keyBuf = append(keyBuf, frame[s]...)
				keyBuf = append(keyBuf, 0x1f)
			}
			if emitSeen == nil {
				emitSeen = make(map[string]bool)
			}
			if !emitSeen[string(keyBuf)] {
				emitSeen[string(keyBuf)] = true
				res.rows = append(res.rows, project(frame))
				if g.emitRow() {
					return false
				}
			}
			return true
		}
		frame := make([]string, p.numSlots)
		if k == 0 {
			copy(frame, base)
			joinStepsShard(c, taskSrcs, 0, seg.to, frame, g, yield)
		} else {
			for off := 0; off < len(startFrames); off += stride {
				copy(frame, startFrames[off:off+stride])
				if !joinStepsShard(c, taskSrcs, seg.from, seg.to, frame, g, yield) {
					break
				}
			}
		}
		return res
	}

	results := make([]segResult, len(tasks))
	runTasks(len(tasks), workers, func(i int) {
		ts := srcs
		if tasks[i] >= 0 {
			ts = make([]shardSrc, len(srcs))
			copy(ts, srcs)
			ts[0] = srcs[0].only(tasks[i])
		}
		results[i] = runSeg(0, ts, nil)
	})

	for k := 1; k < len(segs); k++ {
		if gs.failure() != nil {
			return nil // canceled mid-exchange: partial rows are meaningless
		}
		// Exchange barrier: merge every task's buckets into per-shard frame
		// lists, then fan the next segment out one task per non-empty shard.
		in := make([][]string, P)
		for _, r := range results {
			for s, b := range r.buckets {
				if len(b) > 0 {
					in[s] = append(in[s], b...)
				}
			}
		}
		var shardIDs []int
		for s := 0; s < P; s++ {
			if len(in[s]) > 0 {
				shardIDs = append(shardIDs, s)
			}
		}
		results = make([]segResult, len(shardIDs))
		k := k
		runTasks(len(shardIDs), workers, func(i int) {
			results[i] = runSeg(k, srcs, in[shardIDs[i]])
		})
	}

	if len(results) == 1 {
		return results[0].rows
	}
	if finalRoute >= 0 && containsInt(c.headSlots, finalRoute) {
		// Final tasks are per-shard on a head slot's hash: their projections
		// cannot collide, so no cross-task dedup is needed — and each task's
		// rows can be sorted while still cache-resident, leaving the global
		// SortTuples pass a cheap merge of presorted runs (mergeSortedRows)
		// instead of a scattered full sort.
		runTasks(len(results), workers, func(i int) {
			sortRows(results[i].rows)
		})
		runs := make([][][]string, 0, len(results))
		for _, r := range results {
			if len(r.rows) > 0 {
				runs = append(runs, r.rows)
			}
		}
		return mergeSortedRows(runs)
	}
	var rows [][]string
	seen := make(map[string]bool)
	for _, r := range results {
		for _, row := range r.rows {
			k := storage.Tuple(row).Key()
			if !seen[k] {
				seen[k] = true
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// PartitionHints returns, per predicate, the columns this plan probes (in
// plan order) plus, for scanned predicates, the bound column feeding a later
// step's probe slot — the scan's join column. Feeding the result to
// cost.Catalog.PartitionColumns co-partitions a serving database for the
// plan: every probe routes to its owner shard instead of broadcasting, and a
// root partitioned on its join column enters the plan pre-routed, needing no
// exchange before the first join. The hints are physical-design advice only;
// any layout stays correct.
func (p *CompiledPlan) PartitionHints() map[string][]int {
	hints := make(map[string][]int)
	for i := range p.components {
		collectPartitionHints(p.components[i].steps, hints)
	}
	return hints
}

// collectPartitionHints folds one step sequence's probe and join columns
// into hints. Order encodes preference (cost.Catalog.PartitionColumn takes
// the first in-range entry): a probing step contributes its probe column,
// and a scan contributes the bound columns feeding later probes —
// nearest consumer first, because partitioning a scan on the column its
// *next* join probes is what lets the executor run that join without an
// exchange.
func collectPartitionHints(steps []compiledStep, hints map[string][]int) {
	add := func(pred string, col int) {
		for _, c := range hints[pred] {
			if c == col {
				return
			}
		}
		hints[pred] = append(hints[pred], col)
	}
	for j := range steps {
		s := &steps[j]
		if s.probeCol >= 0 {
			add(s.pred, s.probeCol)
			continue
		}
		for k := j + 1; k < len(steps); k++ {
			if steps[k].probeCol < 0 || steps[k].probeSlot < 0 {
				continue
			}
			for _, op := range s.ops {
				if op.action == colBind && op.slot == steps[k].probeSlot {
					add(s.pred, op.col)
					break
				}
			}
		}
	}
}

// sortRows orders projection rows by the tuple comparator SortTuples uses.
func sortRows(rows [][]string) {
	slices.SortFunc(rows, func(a, b []string) int {
		return storage.Tuple(a).Compare(storage.Tuple(b))
	})
}

// mergeSortedRows merges presorted runs into one sorted slice by pairwise
// passes (log k sequential streaming merges).
func mergeSortedRows(runs [][][]string) [][]string {
	if len(runs) == 0 {
		return nil
	}
	for len(runs) > 1 {
		next := runs[: 0 : len(runs)/2+1]
		for i := 0; i+1 < len(runs); i += 2 {
			next = append(next, mergeTwoRows(runs[i], runs[i+1]))
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		runs = next
	}
	return runs[0]
}

func mergeTwoRows(a, b [][]string) [][]string {
	out := make([][]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if storage.Tuple(a[i]).Compare(storage.Tuple(b[j])) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// EvalSharded executes the plan over a partitioned database and returns the
// distinct answers in sorted order — tuple-set-identical to Eval over the
// flattened database, with shard-local probes and exchange-batched joins.
// The database must not be mutated during the call; freeze it
// (BuildIndexes) for indexed access paths and concurrent workers.
func (p *CompiledPlan) EvalSharded(pdb *storage.PartitionedDatabase, workers int) []storage.Tuple {
	return p.EvalShardedWith(pdb, nil, workers)
}

// EvalShardedWith is EvalSharded under an argument binding (EvalWith): the
// sharded execution path of prepared plans. A parameter-fed probe on a
// partition column routes the whole execution to one owner shard.
func (p *CompiledPlan) EvalShardedWith(pdb *storage.PartitionedDatabase, args []string, workers int) []storage.Tuple {
	return storage.SortTuples(p.EvalShardedUnsortedWith(pdb, args, workers))
}

// EvalShardedUnsortedWith is EvalShardedWith without the final sort.
func (p *CompiledPlan) EvalShardedUnsortedWith(pdb *storage.PartitionedDatabase, args []string, workers int) []storage.Tuple {
	return p.evalShardedUnsorted(pdb, args, workers, nil)
}

// evalShardedUnsorted is the shared sharded executor behind the legacy
// (gs == nil) and context-aware entry points.
func (p *CompiledPlan) evalShardedUnsorted(pdb *storage.PartitionedDatabase, args []string, workers int, gs *guardState) []storage.Tuple {
	base := p.baseFrame(args)
	if !p.empty && len(p.components) == 1 && len(p.components[0].headSlots) > 0 {
		c := &p.components[0]
		rows := p.enumerateComponentSharded(c, pdb, workers, base,
			func(frame []string) []string { return p.headTuple(frame) }, gs)
		out := make([]storage.Tuple, len(rows))
		for i, r := range rows {
			out[i] = r
		}
		return out
	}
	parts, ok := p.componentRowsSharded(pdb, workers, base, gs)
	if !ok || gs.failure() != nil {
		return nil
	}
	if gs != nil && gs.maxRows > 0 {
		prod := 1
		for i := range p.components {
			if len(p.components[i].headSlots) > 0 {
				prod *= len(parts[i])
				if prod > gs.maxRows {
					gs.trip(fmt.Errorf("datalog: row budget of %d exceeded: %w", gs.maxRows, ErrBudgetExceeded))
					return nil
				}
			}
		}
	}
	return p.combineComponents(parts, base, gs)
}

// componentRowsSharded is componentRows over a partitioned database.
func (p *CompiledPlan) componentRowsSharded(pdb *storage.PartitionedDatabase, workers int, base []string, gs *guardState) ([][][]string, bool) {
	if p.empty {
		return nil, false
	}
	parts := make([][][]string, len(p.components))
	for i := range p.components {
		c := &p.components[i]
		if len(c.headSlots) == 0 {
			// Pure existence check: one witness suffices; run it as a single
			// task (striding would only re-discover the same witness).
			srcs := resolveSharded(pdb, c)
			found := false
			frame := make([]string, p.numSlots)
			copy(frame, base)
			joinStepsShard(c, srcs, 0, len(c.steps), frame, gs.child(), func([]string) bool {
				found = true
				return false
			})
			if !found {
				return nil, false
			}
			continue
		}
		rows := p.enumerateComponentSharded(c, pdb, workers, base, c.projectRow, gs)
		if len(rows) == 0 {
			return nil, false
		}
		parts[i] = rows
	}
	return parts, true
}
