package datalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Compiled slot-based physical plans. Compile lowers a conjunctive query to
// a CompiledPlan once; executing the plan is then tuple-at-a-time join
// evaluation with none of the interpretive overhead:
//
//   - variables become integer slots in a flat []string register frame — no
//     Bindings map, no allocation, no delete-trail on backtrack;
//   - the join order is fixed at compile time from catalog statistics
//     (internal/cost) instead of being re-derived greedily per call;
//   - every atom carries its access path: an index probe column fed from a
//     slot or a constant, or a full scan;
//   - each comparison is attached to the earliest join depth at which both
//     sides are bound, pruning partial bindings instead of filtering leaves;
//   - don't-care columns (singleton variables reaching neither head nor
//     comparisons) are skipped entirely, with per-step dedup of the bound
//     columns as the projection pushdown;
//   - a step that binds no new slots is existential: its first matching
//     tuple decides the whole candidate loop.
//
// The executor never mutates the relations it reads: candidate sets come
// from Relation.LookupPositions (a shared []int, no []Tuple materialised)
// with a scan fallback when indexes are stale. A run may therefore shard the
// outermost candidate loop across goroutines over a frozen database, merging
// per-worker results at the end.

// colAction says how one column of a step's candidate tuple is used.
type colAction uint8

const (
	colBind       colAction = iota // copy tuple[col] into frame[slot]
	colCheckSlot                   // tuple[col] must equal frame[slot]
	colCheckConst                  // tuple[col] must equal constVal
)

// colOp is one column action of a step. Don't-care columns have no op.
type colOp struct {
	action   colAction
	col      int
	slot     int
	constVal string
}

// compiledComp is a comparison whose operands resolve to slots or constants.
type compiledComp struct {
	op                    cq.CompOp
	leftSlot, rightSlot   int // -1 → constant operand
	leftConst, rightConst cq.Term
}

// compiledStep is one join step: an access path plus per-column actions.
type compiledStep struct {
	pred string
	// Access path: probe the index on probeCol with the value in
	// frame[probeSlot] (or probeConst when probeSlot < 0); probeCol < 0
	// means full scan. The probed column keeps its check op so the scan
	// fallback stays correct.
	probeCol   int
	probeSlot  int
	probeConst string
	ops        []colOp
	// opsIndexed is ops without the probed column's check: candidates
	// from the index already satisfy it. The scan fallback uses ops.
	opsIndexed []colOp
	// comps are the comparisons whose operands are all bound once this
	// step's columns are, checked before descending.
	comps []compiledComp
	// existential: the step binds no new slots, so its first matching
	// tuple decides the whole candidate loop.
	existential bool
	// dedup: the step has don't-care columns and binds slots, so distinct
	// candidate tuples can carry identical bindings; repeats are skipped
	// (the compiled form of projection pushdown).
	dedup bool
}

// compiledComponent is one connected component of the body: its join steps
// and the slots of the head variables it provides.
type compiledComponent struct {
	steps     []compiledStep
	headSlots []int
}

// headOp builds one head-tuple column from the frame or a constant.
type headOp struct {
	slot     int // -1 → constant
	constVal string
}

// CompiledPlan is an immutable slot-based physical plan for one conjunctive
// query. A plan is compiled once (per engine cache entry) and may be
// executed concurrently by any number of goroutines: execution state lives
// entirely in per-call frames.
type CompiledPlan struct {
	numSlots   int
	head       []headOp
	components []compiledComponent
	// paramSlots are the frame slots of the plan's parameter variables, in
	// declaration order; executions bind them before the first join step.
	paramSlots []int
	// empty marks plans proven unsatisfiable at compile time (a ground
	// comparison failed, or a comparison variable occurs in no subgoal).
	empty bool
}

// Compile lowers q to a physical plan using catalog statistics for join
// ordering and probe selection. A nil catalog is allowed: ordering then
// falls back to bound-columns-first with stable tie-breaks. The plan is
// independent of any database; relations are resolved by name at
// execution time, and predicates missing from the database evaluate as
// empty relations (matching EvalQuery).
func Compile(q *cq.Query, cat *cost.Catalog) *CompiledPlan {
	return CompileParams(q, nil, cat)
}

// CompileParams is Compile for a parameterized plan: the named variables
// become parameter slots, treated as bound before the first join step —
// join ordering, index-probe selection and comparison placement all see
// them as available values, exactly like constants whose value arrives at
// execution time. Execute with EvalParallelUnsortedWith (or its Ctx form),
// passing one argument per parameter in the order given here. Parameters
// may occur anywhere a variable can (body atoms, comparisons, the head); a
// prepared point lookup compiles to the same index-probe plan as its
// constant-bound original.
func CompileParams(q *cq.Query, params []string, cat *cost.Catalog) *CompiledPlan {
	if cat == nil {
		cat = &cost.Catalog{}
	}
	p := &CompiledPlan{}

	// Slot assignment: head and comparison variables always get slots, as
	// does any variable with two or more occurrences (join variables, and
	// repeated variables within an atom, which compile to bind-then-check).
	// Remaining singletons are don't-care positions and never enter the
	// frame. Parameters always get slots — the execution binding must have
	// somewhere to land — and are assigned first, in declaration order.
	needed := neededVars(q)
	occ := make(map[string]int)
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsVar() {
				occ[t.Lex]++
			}
		}
	}
	slots := make(map[string]int)
	slotOf := func(name string) int {
		s, ok := slots[name]
		if !ok {
			s = p.numSlots
			slots[name] = s
			p.numSlots++
		}
		return s
	}
	isParam := make(map[string]bool, len(params))
	for _, v := range params {
		isParam[v] = true
		p.paramSlots = append(p.paramSlots, slotOf(v))
	}
	keep := func(t cq.Term) bool { return needed[t.Lex] || occ[t.Lex] > 1 || isParam[t.Lex] }

	// Ground comparisons are decided now; the rest attach to join depths.
	for _, c := range q.Comparisons {
		if c.Left.IsConst() && c.Right.IsConst() && !c.Op.EvalConst(c.Left, c.Right) {
			p.empty = true
		}
	}

	bound := make(map[string]bool, len(params))
	for _, v := range params {
		bound[v] = true
	}
	for _, comp := range splitComponents(q) {
		cc := compiledComponent{}
		for _, v := range comp.headVars {
			cc.headSlots = append(cc.headSlots, slotOf(v))
		}
		var pending []cq.Comparison
		for _, c := range comp.comps {
			if c.Left.IsConst() && c.Right.IsConst() {
				continue // handled above
			}
			pending = append(pending, c)
		}

		remaining := make([]int, len(comp.atoms))
		for i := range remaining {
			remaining[i] = i
		}
		for len(remaining) > 0 {
			next := chooseNext(comp.atoms, remaining, bound, cat)
			a := comp.atoms[next]
			step := lowerAtom(a, bound, slotOf, keep, cat)
			pending = attachComparisons(&step, pending, bound, slots)
			cc.steps = append(cc.steps, step)
			remaining = removeIdx(remaining, next)
		}
		if len(pending) > 0 {
			// A comparison variable occurs in no relational subgoal of its
			// component (an unsafe query): no binding can satisfy it.
			p.empty = true
		}
		p.components = append(p.components, cc)
	}

	for _, t := range q.Head.Args {
		if t.IsVar() {
			p.head = append(p.head, headOp{slot: slotOf(t.Lex)})
		} else {
			p.head = append(p.head, headOp{slot: -1, constVal: t.Lex})
		}
	}
	return p
}

// neededVars collects the variables of the head and comparisons.
func neededVars(q *cq.Query) map[string]bool {
	needed := make(map[string]bool)
	for _, t := range q.Head.Args {
		if t.IsVar() {
			needed[t.Lex] = true
		}
	}
	for _, c := range q.Comparisons {
		for _, t := range []cq.Term{c.Left, c.Right} {
			if t.IsVar() {
				needed[t.Lex] = true
			}
		}
	}
	return needed
}

// chooseNext picks the next atom to join: most bound argument positions
// first (each bound column is an index restriction), then the smallest
// estimated candidate count under the catalog, then an atom with a bound
// variable over one bound by constants alone, then body order. With a
// rows-only catalog the estimate is the relation cardinality, reproducing
// the interpreter's smaller-relation tie-break; with full statistics bound
// columns are discounted by their distinct counts. Estimates tie where
// statistics are missing, as for derived predicates; there, probing a
// constant-bound atom before the atom that joins it to the bound ones
// would enumerate a cross product.
func chooseNext(atoms []cq.Atom, remaining []int, bound map[string]bool, cat *cost.Catalog) int {
	best, bestScore, bestEst, bestJoined := -1, -1, 0.0, false
	for _, idx := range remaining {
		a := atoms[idx]
		score, joined := 0, false
		est := cat.Rows(a.Pred)
		for col, t := range a.Args {
			if t.IsConst() || t.IsVar() && bound[t.Lex] {
				score++
				est /= cat.Distinct(a.Pred, col)
				joined = joined || t.IsVar()
			}
		}
		if best == -1 || score > bestScore || score == bestScore && (est < bestEst || est == bestEst && joined && !bestJoined) {
			best, bestScore, bestEst, bestJoined = idx, score, est, joined
		}
	}
	return best
}

// lowerAtom compiles one atom into a step, updating bound as it assigns
// slots. Among the bound columns the probe targets the one with the most
// distinct values (the most selective index).
func lowerAtom(a cq.Atom, bound map[string]bool, slotOf func(string) int, keep func(cq.Term) bool, cat *cost.Catalog) compiledStep {
	step := compiledStep{pred: a.Pred, probeCol: -1, probeSlot: -1}
	bestDistinct := 0.0
	for col, t := range a.Args {
		if t.IsConst() || t.IsVar() && bound[t.Lex] {
			if d := cat.Distinct(a.Pred, col); step.probeCol < 0 || d > bestDistinct {
				step.probeCol, bestDistinct = col, d
				if t.IsConst() {
					step.probeSlot, step.probeConst = -1, t.Lex
				} else {
					step.probeSlot, step.probeConst = slotOf(t.Lex), ""
				}
			}
		}
	}
	binds, ignored := 0, false
	for col, t := range a.Args {
		switch {
		case t.IsConst():
			step.ops = append(step.ops, colOp{action: colCheckConst, col: col, constVal: t.Lex})
		case bound[t.Lex]:
			step.ops = append(step.ops, colOp{action: colCheckSlot, col: col, slot: slotOf(t.Lex)})
		case keep(t):
			step.ops = append(step.ops, colOp{action: colBind, col: col, slot: slotOf(t.Lex)})
			bound[t.Lex] = true
			binds++
		default:
			ignored = true
		}
	}
	step.existential = binds == 0
	step.dedup = ignored && binds > 0
	step.opsIndexed = step.ops
	if step.probeCol >= 0 {
		// The probed column is always a check (it was const or bound);
		// drop it from the indexed op list.
		step.opsIndexed = make([]colOp, 0, len(step.ops)-1)
		for _, op := range step.ops {
			if op.col != step.probeCol {
				step.opsIndexed = append(step.opsIndexed, op)
			}
		}
	}
	return step
}

// attachComparisons moves every comparison whose operands are now bound
// onto the step, returning the ones still waiting for bindings.
func attachComparisons(step *compiledStep, pending []cq.Comparison, bound map[string]bool, slots map[string]int) []cq.Comparison {
	var still []cq.Comparison
	for _, c := range pending {
		ready := true
		for _, t := range []cq.Term{c.Left, c.Right} {
			if t.IsVar() && !bound[t.Lex] {
				ready = false
			}
		}
		if !ready {
			still = append(still, c)
			continue
		}
		cc := compiledComp{op: c.Op, leftSlot: -1, rightSlot: -1}
		if c.Left.IsVar() {
			cc.leftSlot = slots[c.Left.Lex]
		} else {
			cc.leftConst = c.Left
		}
		if c.Right.IsVar() {
			cc.rightSlot = slots[c.Right.Lex]
		} else {
			cc.rightConst = c.Right
		}
		step.comps = append(step.comps, cc)
	}
	return still
}

func removeIdx(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// applyStep matches one candidate tuple against the step under the given
// op list (ops for scans, opsIndexed for index candidates), binding and
// checking columns in order and then checking the step's comparisons. It
// reports whether the tuple matches; on mismatch any slots already written
// are garbage, which is safe because they are only read on paths where the
// whole step matched.
func applyStep(step *compiledStep, ops []colOp, t storage.Tuple, frame []string) bool {
	for _, op := range ops {
		v := t[op.col]
		switch op.action {
		case colBind:
			frame[op.slot] = v
		case colCheckSlot:
			if frame[op.slot] != v {
				return false
			}
		default: // colCheckConst
			if op.constVal != v {
				return false
			}
		}
	}
	for _, cc := range step.comps {
		l, r := cc.leftConst, cc.rightConst
		if cc.leftSlot >= 0 {
			l = cq.Const(frame[cc.leftSlot])
		}
		if cc.rightSlot >= 0 {
			r = cq.Const(frame[cc.rightSlot])
		}
		if !cc.op.EvalConst(l, r) {
			return false
		}
	}
	return true
}

// appendBindKey appends the dedup key of a candidate tuple at a step — its
// bound-column values — to buf. Checked columns are equal across all
// candidates that reach this point, so binds alone determine the subtree.
func appendBindKey(buf []byte, step *compiledStep, t storage.Tuple) []byte {
	for _, op := range step.ops {
		if op.action == colBind {
			buf = append(buf, t[op.col]...)
			buf = append(buf, 0x1f)
		}
	}
	return buf
}

// stepSrc is one step's per-call execution source: the relation's tuple
// slice and, when the probe index is built at the current version, the
// probe column's hash index resolved once — one map hop per probe instead
// of two, and no staleness re-check in the loop. A missing predicate
// leaves tuples empty. The executor never mutates the relation: stale
// indexes simply leave idx nil and the step scans.
type stepSrc struct {
	tuples []storage.Tuple
	idx    map[string][]int
}

// joinSteps enumerates the component's matches from the given depth,
// invoking yield with the shared frame for each complete one. It reports
// false iff yield asked to stop. g may be nil (no cancellation checks).
func joinSteps(c *compiledComponent, srcs []stepSrc, depth int, frame []string, g *evalGuard, yield func([]string) bool) bool {
	if depth == len(c.steps) {
		return yield(frame)
	}
	step := &c.steps[depth]
	src := &srcs[depth]
	if src.idx != nil {
		val := step.probeConst
		if step.probeSlot >= 0 {
			val = frame[step.probeSlot]
		}
		return stepLoop(c, srcs, depth, frame, g, yield, src.tuples, src.idx[val], true, 0, 1)
	}
	return stepLoop(c, srcs, depth, frame, g, yield, src.tuples, nil, false, 0, 1)
}

// stepLoop runs one step's candidate loop over either an index position
// list or a full scan, visiting candidates offset, offset+stride, ... —
// inner depths always run the full loop (0, 1); parallel shards stride
// the root. It reports false iff yield asked to stop or the guard tripped.
func stepLoop(c *compiledComponent, srcs []stepSrc, depth int, frame []string, g *evalGuard, yield func([]string) bool, tuples []storage.Tuple, positions []int, usePositions bool, offset, stride int) bool {
	step := &c.steps[depth]
	var seen map[string]bool
	var keyBuf []byte
	ops := step.ops
	n := len(tuples)
	if usePositions {
		n = len(positions)
		ops = step.opsIndexed
	}
	for i := offset; i < n; i += stride {
		if g != nil && g.tick() {
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
			keyBuf = appendBindKey(keyBuf[:0], step, t)
			if seen == nil {
				seen = make(map[string]bool)
			}
			if seen[string(keyBuf)] {
				continue
			}
			seen[string(keyBuf)] = true
		}
		if !joinSteps(c, srcs, depth+1, frame, g, yield) {
			return false
		}
		if step.existential {
			return true // binds nothing: the first match decides
		}
	}
	return true
}

// EvalParallelUnsortedWith executes the plan over db under the argument
// binding args and returns the distinct answers in discovery order;
// callers that want them sorted call storage.SortTuples once. args[i] is
// the value of the i-th parameter passed to CompileParams (nil for a plan
// without parameters); a count mismatch panics, like a call with the wrong
// number of arguments. Each component's outermost candidate loop is sharded
// round-robin across up to workers goroutines, each with its own frame and
// dedup set; workers <= 1 runs sequentially. The executor never mutates
// db, and db must not be mutated during the call; it does not need to be
// frozen — stale indexes degrade to scans — but only frozen relations
// (BuildIndexes) give the probes their index candidates.
func (p *CompiledPlan) EvalParallelUnsortedWith(db *storage.Database, args []string, workers int) []storage.Tuple {
	return p.evalUnsorted(db, args, workers, nil)
}

// evalUnsorted is the shared executor behind the legacy (gs == nil) and
// context-aware entry points. On a tripped guard the partial rows are
// meaningless; callers must consult gs.failure() first.
func (p *CompiledPlan) evalUnsorted(db *storage.Database, args []string, workers int, gs *guardState) []storage.Tuple {
	// Single-component fast path (the common case): emit head tuples
	// straight from the frame into the run's row set, two allocations for
	// the whole answer.
	if !p.empty && len(p.components) == 1 && len(p.components[0].headSlots) > 0 {
		return p.enumerateComponent(db, &p.components[0], args, true, workers, gs)
	}
	parts, ok := p.componentRows(db, args, workers, gs)
	if !ok || gs.failure() != nil {
		return nil
	}
	// Cross-component results multiply; bound the product before the
	// combine materialises it.
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
	return p.combineComponents(parts, p.baseFrame(args), gs)
}

// combineComponents combines the per-component distinct projections into
// head tuples. Components bind disjoint head variables, so distinct row
// combinations yield distinct head tuples — no cross-component dedup is
// needed. The product can dwarf the component scans (it multiplies where
// they add), so the combine loop carries its own guard: cancellation lands
// within one guardInterval of output tuples, not after the full product.
func (p *CompiledPlan) combineComponents(parts [][][]string, base []string, gs *guardState) []storage.Tuple {
	var out []storage.Tuple
	g := gs.child()
	frame := make([]string, p.numSlots)
	copy(frame, base) // head positions may read parameter slots
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(p.components) {
			if g != nil && g.tick() {
				return false
			}
			out = append(out, p.headTuple(frame))
			return true
		}
		c := &p.components[i]
		if len(c.headSlots) == 0 {
			return rec(i + 1)
		}
		for _, row := range parts[i] {
			for j, s := range c.headSlots {
				frame[s] = row[j]
			}
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return out
}

// checkArgs panics unless args binds every parameter of the plan: an arity
// mismatch is a programming error, like a call with the wrong number of
// arguments.
func (p *CompiledPlan) checkArgs(args []string) {
	if len(args) != len(p.paramSlots) {
		panic(fmt.Sprintf("datalog: plan takes %d parameter(s), got %d", len(p.paramSlots), len(args)))
	}
}

// baseFrame builds the initial register frame of one execution: zero values
// everywhere except the parameter slots, which hold args. A nil frame means
// no slots at all.
func (p *CompiledPlan) baseFrame(args []string) []string {
	p.checkArgs(args)
	if p.numSlots == 0 {
		return nil
	}
	base := make([]string, p.numSlots)
	for i, s := range p.paramSlots {
		base[s] = args[i]
	}
	return base
}

// count returns the number of distinct answers of a parameterless plan
// without materialising them: the product of the components' distinct
// projection counts (head tuples are injective in the head-variable
// assignment).
func (p *CompiledPlan) count(db *storage.Database) int {
	parts, ok := p.componentRows(db, nil, 1, nil)
	if !ok {
		return 0
	}
	n := 1
	for i := range p.components {
		if len(p.components[i].headSlots) > 0 {
			n *= len(parts[i])
		}
	}
	return n
}

// resolve binds the component's steps to db: tuple slices plus, for steps
// whose probe index is built, the resolved column index.
func (p *CompiledPlan) resolve(db *storage.Database, c *compiledComponent) []stepSrc {
	srcs := make([]stepSrc, len(c.steps))
	resolveInto(db, c, srcs)
	return srcs
}

// resolveInto is resolve into srcs, one entry per step.
func resolveInto(db *storage.Database, c *compiledComponent, srcs []stepSrc) {
	for j := range c.steps {
		srcs[j] = resolveStep(db, &c.steps[j])
	}
}

// resolveStep binds one step to its relation in db: the tuple slice plus
// the probe column's index when it is built at the current version. A
// missing predicate is the empty relation.
func resolveStep(db *storage.Database, s *compiledStep) stepSrc {
	rel := db.Relation(s.pred)
	if rel == nil {
		return stepSrc{}
	}
	src := stepSrc{tuples: rel.Tuples()}
	if s.probeCol >= 0 {
		src.idx, _ = rel.ColumnIndex(s.probeCol)
	}
	return src
}

// componentRows evaluates every component, returning its distinct
// projections onto its head slots (nil rows for existence-only
// components). ok=false means some component has no match — the query has
// no answers at all.
func (p *CompiledPlan) componentRows(db *storage.Database, args []string, workers int, gs *guardState) ([][][]string, bool) {
	if p.empty {
		return nil, false
	}
	parts := make([][][]string, len(p.components))
	for i := range p.components {
		c := &p.components[i]
		if len(c.headSlots) == 0 {
			// Pure existence check: one witness suffices.
			found := false
			joinSteps(c, p.resolve(db, c), 0, p.baseFrame(args), gs.child(), func([]string) bool {
				found = true
				return false
			})
			if !found {
				return nil, false
			}
			continue
		}
		rows := p.enumerateComponent(db, c, args, false, workers, gs)
		if len(rows) == 0 {
			return nil, false
		}
		parts[i] = make([][]string, len(rows))
		for j, r := range rows {
			parts[i][j] = r
		}
	}
	return parts, true
}

// enumerateComponent collects the component's distinct rows — head tuples
// of the plan when head is set (the plan's only component), else
// projections onto the component's head slots — sharding the root candidate
// loop across workers when profitable.
func (p *CompiledPlan) enumerateComponent(db *storage.Database, c *compiledComponent, args []string, head bool, workers int, gs *guardState) []storage.Tuple {
	sc := p.newRun(db, c, args, head, gs)
	stride := min(workers, sc.candidates())
	if stride <= 1 || c.steps[0].existential {
		sc.run(0, 1)
		rows := sc.set.Rows()
		sc.release()
		return rows
	}

	// Shard the root loop round-robin; each worker runs on a scratch of its
	// own and dedups its own shard into its own row set, and the merge
	// below adds the other workers' rows to the first worker's set.
	runs := make([]*runScratch, stride)
	runs[0] = sc
	for w := 1; w < stride; w++ {
		runs[w] = sc.fork(gs)
	}
	var wg sync.WaitGroup
	for w, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.run(w, stride)
		}()
	}
	wg.Wait()
	for _, run := range runs[1:] {
		for i := 0; i < run.set.n; i++ {
			sc.set.Add(run.set.row(i))
		}
		run.release()
	}
	rows := sc.set.Rows()
	sc.release()
	return rows
}

// runScratch is the state of one sequential run over a component's root
// candidates (all of them, or one worker's stride): register frame,
// resolved step sources, root candidate set, the row set the run emits
// into, and the emit closure bound to it once. Between runs it lives in
// scratchPool, emptied: it holds no reference into any database or plan.
// The result rows are copied out of the set and never pooled.
type runScratch struct {
	p         *CompiledPlan
	c         *compiledComponent
	head      bool // rows are the plan's head tuples, not projections onto c.headSlots
	guard     evalGuard
	g         *evalGuard // &guard, or nil when the run is unguarded
	frame     []string
	srcs      []stepSrc
	positions []int // root candidates as positions into srcs[0].tuples, when probed
	probed    bool
	set       RowSet
	emit      func([]string) bool
}

// scratchPool is shared by all plans — a scratch is resized to the plan it
// serves — so the memory it holds follows the number of concurrent runs,
// not the number of cached plans.
var scratchPool = sync.Pool{New: func() any {
	sc := &runScratch{}
	sc.emit = sc.emitRow
	return sc
}}

// newRun takes a scratch for one execution of component c: parameter slots
// bound to args, steps resolved against db, and the root candidate set
// resolved once. At depth 0 the only bound slots are parameters, so a root
// probe is fed by a constant or a parameter.
func (p *CompiledPlan) newRun(db *storage.Database, c *compiledComponent, args []string, head bool, gs *guardState) *runScratch {
	p.checkArgs(args)
	sc := scratchPool.Get().(*runScratch)
	sc.bind(p, c, head, gs)
	sc.frame = slices.Grow(sc.frame, p.numSlots)[:p.numSlots]
	for i, s := range p.paramSlots {
		sc.frame[s] = args[i]
	}
	sc.srcs = slices.Grow(sc.srcs, len(c.steps))[:len(c.steps)]
	resolveInto(db, c, sc.srcs)
	if root, src := &c.steps[0], &sc.srcs[0]; src.idx != nil {
		val := root.probeConst
		if root.probeSlot >= 0 {
			val = sc.frame[root.probeSlot]
		}
		sc.positions, sc.probed = src.idx[val], true
	}
	return sc
}

// fork takes a second scratch on the same execution, for another worker.
// It must not run concurrently with sc: it copies sc's frame.
func (sc *runScratch) fork(gs *guardState) *runScratch {
	f := scratchPool.Get().(*runScratch)
	f.bind(sc.p, sc.c, sc.head, gs)
	f.frame = append(f.frame, sc.frame...)
	f.srcs = append(f.srcs, sc.srcs...)
	f.positions, f.probed = sc.positions, sc.probed
	return f
}

func (sc *runScratch) bind(p *CompiledPlan, c *compiledComponent, head bool, gs *guardState) {
	sc.p, sc.c, sc.head, sc.set.width = p, c, head, len(c.headSlots)
	if head {
		sc.set.width = len(p.head)
	}
	if gs != nil {
		sc.guard = gs.guard()
		sc.g = &sc.guard
	}
}

// release empties the scratch and returns it to the pool.
func (sc *runScratch) release() {
	clear(sc.frame)
	clear(sc.srcs)
	sc.set.reset()
	*sc = runScratch{frame: sc.frame[:0], srcs: sc.srcs[:0], set: sc.set, emit: sc.emit}
	scratchPool.Put(sc)
}

// candidates is the size of the root candidate set.
func (sc *runScratch) candidates() int {
	if sc.probed {
		return len(sc.positions)
	}
	return len(sc.srcs[0].tuples)
}

// run enumerates root candidates offset, offset+stride, ... through the
// shared stepLoop, collecting the distinct rows found below them in sc.set.
func (sc *runScratch) run(offset, stride int) {
	stepLoop(sc.c, sc.srcs, 0, sc.frame, sc.g, sc.emit, sc.srcs[0].tuples, sc.positions, sc.probed, offset, stride)
}

// column is column i of the row a complete frame yields.
func (sc *runScratch) column(frame []string, i int) string {
	if sc.head {
		return sc.p.head[i].value(frame)
	}
	return frame[sc.c.headSlots[i]]
}

// emitRow writes the row of a complete frame into the set's arena, where it
// stays only if it was not emitted before. Head tuples are injective in the
// head-slot values, so either row shape decides newness. It reports false
// when the row budget says to stop.
func (sc *runScratch) emitRow(frame []string) bool {
	s := &sc.set
	for i := 0; i < s.width; i++ {
		s.vals = append(s.vals, sc.column(frame, i))
	}
	if !s.addTail() {
		return true
	}
	return !sc.g.emitRow()
}

// value is the head column's value under a frame.
func (h headOp) value(frame []string) string {
	if h.slot >= 0 {
		return frame[h.slot]
	}
	return h.constVal
}

// headTuple builds the answer tuple for a complete frame.
func (p *CompiledPlan) headTuple(frame []string) storage.Tuple {
	t := make(storage.Tuple, len(p.head))
	for i, h := range p.head {
		t[i] = h.value(frame)
	}
	return t
}

// NumSlots returns the register-frame width (distinct retained variables).
func (p *CompiledPlan) NumSlots() int { return p.numSlots }

// NumParams returns the number of parameter slots (CompileParams).
func (p *CompiledPlan) NumParams() int { return len(p.paramSlots) }

// Describe renders the physical plan for humans: one line per join step
// with its access path, binding actions and attached comparisons.
func (p *CompiledPlan) Describe() string {
	var sb strings.Builder
	if p.empty {
		return "empty plan (unsatisfiable at compile time)\n"
	}
	if len(p.paramSlots) > 0 {
		fmt.Fprintf(&sb, "params -> slots %v\n", p.paramSlots)
	}
	for i := range p.components {
		c := &p.components[i]
		fmt.Fprintf(&sb, "component %d", i)
		if len(c.headSlots) == 0 {
			sb.WriteString(" (existence check)")
		} else {
			fmt.Fprintf(&sb, " -> slots %v", c.headSlots)
		}
		sb.WriteByte('\n')
		for j := range c.steps {
			describeStep(&sb, "  ", j, &c.steps[j], false)
		}
	}
	return sb.String()
}

// describeStep renders one join step (access path, flags, comparisons) for
// the plan and program Describe methods. deltaRoot marks the first step of
// a delta variant, whose candidates come from the round's delta instead of
// the step's access path.
func describeStep(sb *strings.Builder, indent string, idx int, s *compiledStep, deltaRoot bool) {
	access := "scan"
	switch {
	case deltaRoot:
		access = "delta"
	case s.probeCol >= 0 && s.probeSlot >= 0:
		access = fmt.Sprintf("index(col=%d <- slot %d)", s.probeCol, s.probeSlot)
	case s.probeCol >= 0:
		access = fmt.Sprintf("index(col=%d = %q)", s.probeCol, s.probeConst)
	}
	fmt.Fprintf(sb, "%s%d. %s  %s", indent, idx+1, s.pred, access)
	if s.existential {
		sb.WriteString("  existential")
	}
	if s.dedup {
		sb.WriteString("  dedup")
	}
	if len(s.comps) > 0 {
		fmt.Fprintf(sb, "  comparisons=%d", len(s.comps))
	}
	sb.WriteByte('\n')
}
