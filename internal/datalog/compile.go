package datalog

import (
	"fmt"
	"hash/maphash"
	"math"
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
// from a column's storage.ColIndex (a walk along a chain of positions, no
// []Tuple materialised) with a scan fallback when the column is not
// indexed. Any number of runs may therefore share a frozen database.

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
// execution time. Execute with EvalParallelUnsortedWith (or EvalIntoCtx),
// passing one argument per parameter in the order given here. Parameters
// may occur anywhere a variable can (body atoms, comparisons, the head); a
// prepared point lookup compiles to the same index-probe plan as its
// constant-bound original.
func CompileParams(q *cq.Query, params []string, cat *cost.Catalog) *CompiledPlan {
	l := newLowering(cat)
	sc := compileScratchPool.Get().(*compileScratch)
	defer sc.release()
	for _, t := range q.Head.Args {
		if t.IsVar() {
			l.need(t.Lex)
		}
	}
	l.begin(q.Body, q.Comparisons, params)

	// The plan is a fixed set of arrays, each sized before it is filled:
	// every step's column ops are windows onto one []colOp, every
	// component's steps onto one []compiledStep (both the lowering's), and
	// the parameter and head slots onto one []int. Each component's head
	// slots are assigned before its atoms are lowered. The components and
	// the join order's list live in sc, which the plan does not keep.
	comps := splitComponents(q, sc)
	nslots := len(params)
	for i := range comps {
		nslots += len(comps[i].headVars)
	}
	slotBuf := make([]int, 0, nslots)
	for _, v := range params {
		slotBuf = append(slotBuf, l.slotOf(v))
	}
	p := &CompiledPlan{
		paramSlots: slotBuf[:len(params):len(params)],
		components: make([]compiledComponent, 0, len(comps)),
	}
	for _, comp := range comps {
		first := len(slotBuf)
		for _, v := range comp.headVars {
			slotBuf = append(slotBuf, l.slotOf(v))
		}
		headSlots := slotBuf[first:len(slotBuf):len(slotBuf)]
		p.components = append(p.components, compiledComponent{steps: l.join(comp.atoms, comp.comps, -1, &sc.remaining), headSlots: headSlots})
	}

	p.head = make([]headOp, len(q.Head.Args))
	for i, t := range q.Head.Args {
		if t.IsVar() {
			p.head[i] = headOp{slot: l.slotOf(t.Lex)}
		} else {
			p.head[i] = headOp{slot: -1, constVal: t.Lex}
		}
	}
	p.numSlots, p.empty = l.numSlots, l.empty
	return p
}

// Estimate prices q as CompileParams(q, params, cat) runs it: atoms in the
// compiler's own join order (chooseNext), each step yielding its rows
// divided by the distinct counts of its bound columns, and Cost summing
// the intermediate result after every step. A disconnected body's
// components interleave here, but each is priced in its compiled order,
// since the choice among one component's atoms never sees another's
// variables. Params are bound before the first step; comparisons filter
// the result at 1/3 each (the System R default). Candidates are ranked by
// Estimate rather than compiled: an estimate allocates a fraction of a
// compile.
func Estimate(q *cq.Query, params []string, cat *cost.Catalog) cost.Estimate {
	bound := make(map[string]bool, len(params))
	for _, v := range params {
		bound[v] = true
	}
	est := cost.Estimate{Cardinality: 1}
	sc := compileScratchPool.Get().(*compileScratch)
	defer sc.release()
	joinOrder(q.Body, -1, bound, cat, &sc.remaining, func(next int, rows float64) {
		a := q.Body[next]
		// A step's estimate is floored at one tuple of its whole relation
		// (1/rows, rows guarded against zero), so it never reaches zero.
		est.Cardinality *= math.Max(rows, 1/math.Max(1, cat.Rows(a.Pred)))
		est.Cost += est.Cardinality
		for _, t := range a.Args {
			if t.IsVar() {
				bound[t.Lex] = true
			}
		}
	})
	for range q.Comparisons {
		est.Cardinality /= 3
	}
	return est
}

// Choose returns the index of the cheapest candidate under Estimate (-1
// when there are none) with every candidate's estimate: the decision an
// optimiser runs over the rewritings of one query.
func Choose(candidates []*cq.Query, params []string, cat *cost.Catalog) (best int, estimates []cost.Estimate) {
	best = -1
	estimates = make([]cost.Estimate, len(candidates))
	for i, q := range candidates {
		estimates[i] = Estimate(q, params, cat)
		if best == -1 || estimates[i].Cost < estimates[best].Cost {
			best = i
		}
	}
	return best, estimates
}

// chooseNext picks the next atom to join and returns it with its
// estimated candidate count: most bound argument positions first (each
// bound column is an index restriction), then the smallest estimate, the
// relation's rows divided by the distinct counts of its bound columns,
// then an atom with a bound variable over one bound by constants alone,
// then body order. With a rows-only catalog the estimate is the relation
// cardinality, reproducing the interpreter's smaller-relation tie-break.
// Estimates tie where statistics are missing, as for derived predicates;
// there, probing a constant-bound atom before the atom that joins it to
// the bound ones would enumerate a cross product. It is the one join-order
// rule of compiled plans, rule variants and Estimate.
func chooseNext(atoms []cq.Atom, remaining []int, bound map[string]bool, cat *cost.Catalog) (int, float64) {
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
	return best, bestEst
}

// lowering compiles the body of one plan or rule variant into join steps.
// It is the one place that decides which variables keep a frame slot,
// which comparisons are decided at compile time, the join order, where
// each comparison is checked, and that a body no binding can satisfy
// compiles empty. A plan joins each connected component of its body in
// turn, a rule variant its whole body at once; the slots, the bound
// variables and the backing arrays span every join of one lowering.
type lowering struct {
	cat *cost.Catalog
	// uses counts each variable's body occurrences, plus two for one that
	// the head, a Skolem argument, a comparison or a parameter reads: a
	// variable keeps a frame slot iff its count exceeds one (join
	// variables, and repeated variables within an atom, which compile to
	// bind-then-check). The rest are don't-care positions and never enter
	// the frame.
	uses     map[string]int
	slots    map[string]int
	numSlots int
	bound    map[string]bool // variables bound before the next step
	// empty marks a body no binding satisfies: a ground comparison failed,
	// or a comparison variable occurs in no atom of its join.
	empty bool
	// arrays sit behind a pointer: the compiled plan keeps windows onto
	// them, and escape analysis, which does not tell a struct's fields
	// apart, would otherwise move the maps to the heap with them. For the
	// same reason the pooled scratch a lowering's caller holds is not a
	// field.
	arrays *loweredArrays
}

// loweredArrays are the backing arrays begin sizes: the steps' column ops
// are windows onto ops, each join's steps a window onto steps.
type loweredArrays struct {
	ops   []colOp
	steps []compiledStep
}

// newLowering returns a lowering over cat's statistics, none when cat is
// nil (bound-columns-first ordering with stable tie-breaks). It inlines,
// so the maps live in the caller's frame.
func newLowering(cat *cost.Catalog) lowering {
	return lowering{cat: cat, uses: make(map[string]int), slots: make(map[string]int), bound: make(map[string]bool), arrays: &loweredArrays{}}
}

// need keeps name in the frame whatever its occurrences. Callers need the
// head's variables before begin.
func (l *lowering) need(name string) { l.uses[name] += 2 }

// keep reports whether a variable gets a frame slot.
func (l *lowering) keep(name string) bool { return l.uses[name] > 1 }

// slotOf returns name's frame slot, assigning the next one on first use.
func (l *lowering) slotOf(name string) int {
	s, ok := l.slots[name]
	if !ok {
		s = l.numSlots
		l.slots[name] = s
		l.numSlots++
	}
	return s
}

// begin prepares the lowering of body under comps and params: it counts
// the variables' uses, decides the ground comparisons, gives the
// parameters the first slots, in declaration order, bound before the first
// step, and sizes the backing arrays: one op per constant and per kept
// variable, one step per atom.
func (l *lowering) begin(body []cq.Atom, comps []cq.Comparison, params []string) {
	for _, a := range body {
		for _, t := range a.Args {
			if t.IsVar() {
				l.uses[t.Lex]++
			}
		}
	}
	for _, c := range comps {
		if c.Left.IsConst() && c.Right.IsConst() && !c.Op.EvalConst(c.Left, c.Right) {
			l.empty = true
		}
		for _, t := range [2]cq.Term{c.Left, c.Right} {
			if t.IsVar() {
				l.need(t.Lex)
			}
		}
	}
	for _, v := range params {
		l.need(v)
		l.slotOf(v)
		l.bound[v] = true
	}
	n := 0
	for _, a := range body {
		for _, t := range a.Args {
			if t.IsConst() || l.keep(t.Lex) {
				n++
			}
		}
	}
	l.arrays.ops = make([]colOp, n)
	l.arrays.steps = make([]compiledStep, 0, len(body))
}

// join lowers one connected body under its comparisons, the ground ones
// already decided by begin: atoms[root] first when root >= 0, then the
// rest in join order, each comparison checked at the first step that binds
// its operands. A comparison no step binds marks the lowering empty. It
// returns the steps, a window onto the lowering's backing array; remaining
// is joinOrder's scratch.
func (l *lowering) join(atoms []cq.Atom, comps []cq.Comparison, root int, remaining *[]int) []compiledStep {
	var pending []cq.Comparison
	for _, c := range comps {
		if !c.Left.IsConst() || !c.Right.IsConst() {
			pending = append(pending, c)
		}
	}
	arr := l.arrays
	first := len(arr.steps)
	joinOrder(atoms, root, l.bound, l.cat, remaining, func(next int, _ float64) {
		step := l.lowerAtom(atoms[next])
		pending = l.attachComparisons(&step, pending)
		arr.steps = append(arr.steps, step)
	})
	if len(pending) > 0 {
		l.empty = true
	}
	return arr.steps[first:len(arr.steps):len(arr.steps)]
}

// joinOrder calls visit with each atom's index in the one join order of
// plans, rule variants and Estimate: atoms[root] first when root >= 0,
// then repeatedly the atom chooseNext picks under bound, with its
// estimated rows. visit must add the variables its atom binds to bound.
// *scratch is the list of the atoms not yet joined, grown as it needs.
func joinOrder(atoms []cq.Atom, root int, bound map[string]bool, cat *cost.Catalog, scratch *[]int, visit func(next int, rows float64)) {
	remaining := (*scratch)[:0]
	for i := range atoms {
		remaining = append(remaining, i)
	}
	*scratch = remaining
	for len(remaining) > 0 {
		next, rows := root, 0.0
		if root < 0 {
			next, rows = chooseNext(atoms, remaining, bound, cat)
		}
		root = -1
		visit(next, rows)
		remaining = slices.DeleteFunc(remaining, func(i int) bool { return i == next })
	}
}

// lowerAtom compiles one atom into a step, binding its kept variables.
// Among the bound columns the probe targets the one with the most distinct
// values (the most selective index). The step's ops are the front of the
// lowering's ops array, which it advances past them. A probing step's
// first op checks the probed column, so its opsIndexed are its ops without
// the first.
func (l *lowering) lowerAtom(a cq.Atom) compiledStep {
	step := compiledStep{pred: a.Pred, probeCol: -1, probeSlot: -1}
	bestDistinct := 0.0
	for col, t := range a.Args {
		if t.IsConst() || t.IsVar() && l.bound[t.Lex] {
			if d := l.cat.Distinct(a.Pred, col); step.probeCol < 0 || d > bestDistinct {
				step.probeCol, bestDistinct = col, d
				if t.IsConst() {
					step.probeSlot, step.probeConst = -1, t.Lex
				} else {
					step.probeSlot, step.probeConst = l.slotOf(t.Lex), ""
				}
			}
		}
	}
	backing, n := l.arrays.ops, 0
	if step.probeCol >= 0 {
		// The probed column was constant or bound before this step, so its
		// op is a check that can run first.
		backing[0] = colOp{action: colCheckConst, col: step.probeCol, constVal: step.probeConst}
		if step.probeSlot >= 0 {
			backing[0] = colOp{action: colCheckSlot, col: step.probeCol, slot: step.probeSlot}
		}
		n = 1
	}
	binds, ignored := 0, false
	for col, t := range a.Args {
		switch {
		case col == step.probeCol:
		case t.IsConst():
			backing[n] = colOp{action: colCheckConst, col: col, constVal: t.Lex}
			n++
		case l.bound[t.Lex]:
			backing[n] = colOp{action: colCheckSlot, col: col, slot: l.slotOf(t.Lex)}
			n++
		case l.keep(t.Lex):
			backing[n] = colOp{action: colBind, col: col, slot: l.slotOf(t.Lex)}
			n++
			l.bound[t.Lex] = true
			binds++
		default:
			ignored = true
		}
	}
	step.existential = binds == 0
	step.dedup = ignored && binds > 0
	step.ops = backing[:n:n]
	step.opsIndexed = step.ops
	if step.probeCol >= 0 {
		step.opsIndexed = step.ops[1:]
	}
	l.arrays.ops = backing[n:]
	return step
}

// attachComparisons moves every comparison whose operands are now bound
// onto the step, returning the ones still waiting for bindings.
func (l *lowering) attachComparisons(step *compiledStep, pending []cq.Comparison) []cq.Comparison {
	var still []cq.Comparison
	for _, c := range pending {
		if c.Left.IsVar() && !l.bound[c.Left.Lex] || c.Right.IsVar() && !l.bound[c.Right.Lex] {
			still = append(still, c)
			continue
		}
		cc := compiledComp{op: c.Op, leftSlot: -1, rightSlot: -1}
		if c.Left.IsVar() {
			cc.leftSlot = l.slots[c.Left.Lex]
		} else {
			cc.leftConst = c.Left
		}
		if c.Right.IsVar() {
			cc.rightSlot = l.slots[c.Right.Lex]
		} else {
			cc.rightConst = c.Right
		}
		step.comps = append(step.comps, cc)
	}
	return still
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

// hashBinds hashes a candidate tuple's bound-column values at a step, in
// column order. Checked columns are equal across all candidates that reach
// this point, so binds alone determine the subtree.
func hashBinds(step *compiledStep, t storage.Tuple) uint32 {
	h := uint64(0)
	for _, op := range step.ops {
		if op.action == colBind {
			h = (h ^ maphash.String(rowSeed, t[op.col])) * 0x9e3779b97f4a7c15
		}
	}
	return uint32(h >> 32)
}

// bindsSeen reports whether seen holds the position of a candidate, in
// tuples, whose bound-column values equal t's; h is t's hashBinds. A hash
// hit is confirmed column by column, so no two bindings are confused.
func bindsSeen(seen *storage.PosTable, h uint32, step *compiledStep, tuples []storage.Tuple, t storage.Tuple) bool {
	p := seen.Probe(h)
	for pos := p.Next(); pos >= 0; pos = p.Next() {
		same := true
		for _, op := range step.ops {
			if op.action == colBind && tuples[pos][op.col] != t[op.col] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// stepSrc is one step's per-call execution source: the relation's tuple
// slice and, when the probe column is indexed, its index resolved once, so
// the loop re-checks nothing per probe. A missing predicate leaves tuples
// empty. The executor never mutates the relation: an unbuilt index simply
// leaves idx nil and the step scans.
type stepSrc struct {
	tuples []storage.Tuple
	idx    *storage.ColIndex
}

// probeValue is the value a probing step looks up under frame.
func (s *compiledStep) probeValue(frame []string) string {
	if s.probeSlot >= 0 {
		return frame[s.probeSlot]
	}
	return s.probeConst
}

// joinSteps enumerates the component's matches from the given depth,
// invoking yield with the shared frame for each complete one. It reports
// false iff yield asked to stop. g may be nil (no cancellation checks).
func joinSteps(c *compiledComponent, srcs []stepSrc, depth int, frame []string, g *evalGuard, yield func([]string) bool) bool {
	if depth == len(c.steps) {
		return yield(frame)
	}
	src := &srcs[depth]
	cur := cursor{end: len(src.tuples)}
	if src.idx != nil {
		cur = cursor{chain: src.idx, at: src.idx.First(src.tuples, c.steps[depth].probeValue(frame))}
	}
	return stepLoop(c, srcs, depth, frame, g, yield, cur)
}

// cursor walks one step's candidates, as positions into its tuples: a
// probe's chain through a column index, or a scan of everything.
type cursor struct {
	chain   *storage.ColIndex // walk the chain from position at; nil scans
	at, end int
}

// next returns the next candidate's position, or -1 when there is none.
func (c *cursor) next() int {
	pos := c.at
	if c.chain != nil {
		if pos >= 0 {
			c.at = c.chain.Next(pos)
		}
		return pos
	}
	if pos >= c.end {
		return -1
	}
	c.at++
	return pos
}

// stepLoop runs one step's candidate loop over cur. It reports false iff
// yield asked to stop or the guard tripped.
func stepLoop(c *compiledComponent, srcs []stepSrc, depth int, frame []string, g *evalGuard, yield func([]string) bool, cur cursor) bool {
	step := &c.steps[depth]
	tuples := srcs[depth].tuples
	// seen holds, for a dedup step, the position of the first candidate of
	// each distinct binding.
	var seen storage.PosTable
	ops := step.ops
	if cur.chain != nil {
		ops = step.opsIndexed
	}
	for pos := cur.next(); pos >= 0; pos = cur.next() {
		if g != nil && g.tick() {
			return false
		}
		t := tuples[pos]
		if !applyStep(step, ops, t, frame) {
			continue
		}
		if step.dedup {
			h := hashBinds(step, t)
			if bindsSeen(&seen, h, step, tuples, t) {
				continue
			}
			seen.Place(h, pos)
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
// number of arguments. The plan runs on the calling goroutine; workers is
// ignored, kept so that existing callers compile. The executor never
// mutates db, and db must not be mutated during the call; it does not need
// to be frozen — unindexed columns degrade to scans — but only frozen
// relations (BuildIndexes) give the probes their index candidates.
func (p *CompiledPlan) EvalParallelUnsortedWith(db *storage.Database, args []string, workers int) []storage.Tuple {
	into := AcquireRowSet()
	p.evalInto(db, args, nil, into)
	rows := into.Rows()
	into.Release()
	return rows
}

// evalInto is the shared executor behind the legacy (gs == nil) and
// context-aware entry points: it adds the distinct answers to into and
// returns how many distinct answers the plan itself produced, before any
// dedup against rows into already held. On a tripped guard the rows are
// meaningless; callers must consult gs.failure() first.
func (p *CompiledPlan) evalInto(db *storage.Database, args []string, gs *guardState, into *RowSet) int {
	// Single-component fast path (the common case): emit head tuples
	// straight from the frame into the run's row set, whose storage an
	// empty into then takes over.
	if !p.empty && len(p.components) == 1 && len(p.components[0].headSlots) > 0 {
		sc := p.enumerateComponent(db, &p.components[0], args, true, gs)
		n := sc.set.n
		if gs.failure() == nil {
			into.addAll(&sc.set)
		}
		sc.release()
		return n
	}
	parts, ok := p.componentRows(db, args, gs)
	if !ok || gs.failure() != nil {
		return 0
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
					return 0
				}
			}
		}
	}
	return p.combineComponents(parts, p.baseFrame(args), gs, into)
}

// combineComponents combines the per-component distinct projections into
// head tuples, adds them to into and returns how many it built. Components
// bind disjoint head variables, so distinct row combinations yield
// distinct head tuples: into an empty set they are appended without a
// lookup, and only a set that already holds rows (an earlier union
// member's) dedups them. The product can dwarf the component scans (it
// multiplies where they add), so the combine loop carries its own guard:
// cancellation lands within one guardInterval of output tuples, not after
// the full product.
func (p *CompiledPlan) combineComponents(parts [][][]string, base []string, gs *guardState, into *RowSet) int {
	n := 0
	distinct := into.Len() == 0
	g := gs.child()
	frame := make([]string, p.numSlots)
	copy(frame, base) // head positions may read parameter slots
	row := make([]string, len(p.head))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(p.components) {
			if g != nil && g.tick() {
				return false
			}
			for j, h := range p.head {
				row[j] = h.value(frame)
			}
			if distinct {
				into.appendNew(row)
			} else {
				into.Add(row)
			}
			n++
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
	return n
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

// resolve binds the component's steps to db: tuple slices plus, for steps
// whose probe column is indexed, the resolved column index.
func (p *CompiledPlan) resolve(db *storage.Database, c *compiledComponent) []stepSrc {
	srcs := make([]stepSrc, len(c.steps))
	resolveInto(db, c, srcs)
	return srcs
}

// resolveInto is resolve into srcs, one entry per step.
func resolveInto(db *storage.Database, c *compiledComponent, srcs []stepSrc) {
	for j := range c.steps {
		srcs[j] = resolveStep(db.Relation(c.steps[j].pred), &c.steps[j])
	}
}

// resolveStep binds one step to its relation: the tuple slice plus the
// probe column's index when it is built. A missing (nil) relation is the
// empty relation.
func resolveStep(rel *storage.Relation, s *compiledStep) stepSrc {
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
func (p *CompiledPlan) componentRows(db *storage.Database, args []string, gs *guardState) ([][][]string, bool) {
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
		sc := p.enumerateComponent(db, c, args, false, gs)
		rows := sc.set.Rows()
		sc.release()
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
// projections onto the component's head slots. It runs on a pooled
// scratch, with parameter slots bound to args and steps resolved against
// db; the rows are in the scratch's set, and the caller releases it.
func (p *CompiledPlan) enumerateComponent(db *storage.Database, c *compiledComponent, args []string, head bool, gs *guardState) *runScratch {
	p.checkArgs(args)
	sc := scratchPool.Get().(*runScratch)
	sc.p, sc.c, sc.head, sc.set.width = p, c, head, len(c.headSlots)
	if head {
		sc.set.width = len(p.head)
	}
	sc.arm(gs)
	sc.frame = slices.Grow(sc.frame, p.numSlots)[:p.numSlots]
	for i, s := range p.paramSlots {
		sc.frame[s] = args[i]
	}
	sc.srcs = slices.Grow(sc.srcs, len(c.steps))[:len(c.steps)]
	resolveInto(db, c, sc.srcs)
	joinSteps(c, sc.srcs, 0, sc.frame, sc.g, sc.emit)
	return sc
}

// runScratch is the state of one run over a component: register frame,
// resolved step sources, the row set the run emits into, and the emit
// closure bound to it once. Between runs it lives in scratchPool, emptied:
// it holds no reference into any database or plan.
// A plan run's rows leave the set by trading storage with the caller's
// pooled set (RowSet.addAll), or are copied out of it.
//
// A rule-variant execution (emitVariant) runs on the same scratch: its
// frame, sources and set are the derivation buffer, v, comp, accept and
// hs its head emission, and derive the closure bound to it once. The
// round's merge copies the set's rows out and releases the scratch.
type runScratch struct {
	p     *CompiledPlan
	c     *compiledComponent
	head  bool // rows are the plan's head tuples, not projections onto c.headSlots
	guard evalGuard
	g     *evalGuard // &guard, or nil when the run is unguarded
	frame []string
	srcs  []stepSrc
	set   RowSet
	emit  func([]string) bool

	v      *ruleVariant
	comp   compiledComponent // v's steps, for joinSteps
	accept func(storage.Tuple) bool
	hs     headScratch
	err    error // the variant's evaluation error
	derive func([]string) bool
}

// scratchPool is shared by all plans and programs — a scratch is resized
// to the plan or variant it serves — so the memory it holds follows the
// number of concurrent runs, not the number of cached plans.
var scratchPool = sync.Pool{New: func() any {
	sc := &runScratch{}
	sc.emit = sc.emitRow
	sc.derive = sc.deriveRow
	return sc
}}

// arm gives the run a guard of its own over gs; a nil gs leaves it
// unguarded.
func (sc *runScratch) arm(gs *guardState) {
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
	sc.hs.reset()
	*sc = runScratch{frame: sc.frame[:0], srcs: sc.srcs[:0], set: sc.set, emit: sc.emit, hs: sc.hs, derive: sc.derive}
	scratchPool.Put(sc)
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
