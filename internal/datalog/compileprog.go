package datalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/cost"
	"repro/internal/storage"
)

// Compiled datalog programs. CompileProgram lowers every rule of a Program
// to slot-plan form once; CompiledProgram.Eval then runs a stratified
// semi-naive fixpoint over the compiled rules with none of the interpretive
// overhead of Program.EvalInterp:
//
//   - each rule body becomes a sequence of compiledSteps, lowered by the
//     one body compiler single-query plans use (lowering): the same
//     integer-slot frames, catalog-ordered joins, index-probe access paths
//     and earliest-bound-depth comparisons. A head-emission step follows
//     that builds the derived row in a scratch — slot and constant columns
//     are the frame's strings, Skolem values are written into a reused
//     buffer the row views in place — and keeps it, in the pooled row set
//     the variant's execution derives into, only when the row is accepted;
//     a kept row's Skolem values are copied into an append-only arena of
//     byte chunks;
//   - rules are grouped into strata at compile time: the strongly connected
//     components of the derived-predicate dependency graph, each one stratum
//     above the highest component it reads. A run evaluates the strata in
//     order, so every rule fires only once all its inputs from lower strata
//     are final;
//   - within a stratum, each rule fires its full plan once; after that, only
//     delta variants run: a plan with one body occurrence of a same-stratum
//     (recursive) predicate forced to the root of the join order, fed by the
//     previous round's delta instead of the full relation. Work is therefore
//     proportional to what the last round derived, not to the accumulated
//     fixpoint, and a non-recursive stratum is a single round. Occurrences
//     of lower-stratum predicates get no delta variant in a plain program;
//     maintenance programs (CompileProgramIVM) compile those too, because
//     an update batch changes every stratum at once;
//   - derived (IDB) relations are private to the Eval call: each is a
//     storage.Relation that adopts the rows its executions derived — each
//     buffer copied once into one backing array (mergeRound) — and
//     maintains its probe-column indexes incrementally as they arrive,
//     instead of the interpreter's discard-and-rebuild on every insert;
//   - within a round, rule-variant executions only read the relations:
//     inserts are buffered and merged between rounds.
//
// The executor never mutates the EDB it reads: base candidates come from
// frozen column indexes when available and degrade to scans otherwise,
// exactly like CompiledPlan. Any number of Evals may therefore run
// concurrently over one shared (even unfrozen) database.

// ruleHeadOp builds one head-tuple column: from a Skolem application over
// frame slots, from a frame slot, or from a constant.
type ruleHeadOp struct {
	skolem   *compiledSkolem // nil unless the column is a Skolem term
	slot     int             // -1 → constant
	constVal string
}

// compiledSkolem is a Skolem function term whose arguments resolve to slots.
type compiledSkolem struct {
	name     string
	argSlots []int
}

// ruleVariant is one executable form of a rule: the full plan (fired once,
// in the first round of the rule's stratum) or a delta variant (fired
// whenever its delta predicate gained tuples in the previous round, with the
// delta atom at the join root).
type ruleVariant struct {
	// deltaPos is the body position the variant restricts to the delta;
	// -1 for the full variant.
	deltaPos  int
	deltaPred string
	// recursive marks a delta variant whose delta predicate lies in the
	// head's own stratum, the only kind a fixpoint run fires; the others
	// exist in maintenance programs alone, and Describe marks them.
	recursive bool
	steps     []compiledStep
	head      []ruleHeadOp
	numSlots  int
	// unsafeVar names a head or Skolem-argument variable the body never
	// binds; the first body match reports it as an evaluation error,
	// matching the interpreter's lazy unsafe-rule detection.
	unsafeVar string
	// empty marks variants proven matchless at compile time: a ground
	// comparison failed, or a comparison variable occurs in no body atom
	// (the interpreter silently filters every binding in both cases).
	empty bool
}

// compiledRule is one rule's compiled forms plus its head shape.
type compiledRule struct {
	headPred string
	arity    int
	stratum  int
	full     ruleVariant
	deltas   []ruleVariant
	// edbDeltas are per-EDB-occurrence delta variants, compiled only for
	// maintenance programs (CompileProgramIVM): they seed a maintenance
	// round from a batch of base-relation changes, exactly as the IDB
	// variants in deltas continue it from derived tuples.
	edbDeltas []ruleVariant
	src       Rule // retained for Describe
}

// FixpointStats reports the work of one semi-naive evaluation.
type FixpointStats struct {
	// Iterations is the number of semi-naive rounds executed, summed over
	// the strata, each stratum's full-plan round included.
	Iterations int
	// Derived is the number of distinct IDB tuples derived beyond the EDB.
	Derived int
}

// CompiledProgram is an immutable compiled form of a datalog Program. Like
// CompiledPlan it is compiled once (per engine cache entry) and may be
// evaluated concurrently by any number of goroutines: all fixpoint state
// lives in per-call structures.
type CompiledProgram struct {
	// rules are in evaluation order: sorted by stratum, each stratum's
	// rules in program order.
	rules []compiledRule
	// strata partitions rules: strata[s] is the sub-slice of stratum s.
	strata [][]compiledRule
	// idbArity maps every derived predicate to its arity.
	idbArity map[string]int
	// idbProbeCols lists, per IDB predicate, the columns some compiled step
	// probes; per-call IDB relations maintain exactly these hash indexes
	// incrementally.
	idbProbeCols map[string][]int
	// ivm marks programs compiled with per-EDB-occurrence delta variants
	// (CompileProgramIVM); only those support ApplyUpdatesCtx.
	ivm bool
	// supports are the re-derivation variants of IVM programs: per rule, a
	// plan rooted at the rule's own head (fed by over-deleted tuples), or
	// the filtered full variant when the head contains Skolem terms (see
	// delete.go).
	supports []supportVariant
}

// CompileProgram lowers a program to compiled-rule form using catalog
// statistics for join ordering and probe selection (nil falls back to
// bound-columns-first ordering). It fails when two rules derive the same
// predicate with different arities — the interpreter reports the same
// conflict at evaluation time.
func CompileProgram(p *Program, cat *cost.Catalog) (*CompiledProgram, error) {
	return compileProgram(p, cat, false)
}

// CompileProgramIVM is CompileProgram for incremental view maintenance: in
// addition to the recursive delta variants it lowers one delta variant per
// lower-stratum IDB body occurrence and one per EDB body occurrence, so
// ApplyUpdatesCtx can seed a semi-naive propagation round directly from a
// batch of base-relation changes, and carry it across strata, instead of
// re-running the fixpoint from scratch.
func CompileProgramIVM(p *Program, cat *cost.Catalog) (*CompiledProgram, error) {
	return compileProgram(p, cat, true)
}

func compileProgram(p *Program, cat *cost.Catalog, ivm bool) (*CompiledProgram, error) {
	cp := &CompiledProgram{
		idbArity:     make(map[string]int),
		idbProbeCols: make(map[string][]int),
		ivm:          ivm,
	}
	for _, r := range p.Rules {
		if prev, ok := cp.idbArity[r.HeadPred]; ok && prev != len(r.Head) {
			return nil, fmt.Errorf("datalog: relation %s derived with arities %d and %d", r.HeadPred, prev, len(r.Head))
		}
		cp.idbArity[r.HeadPred] = len(r.Head)
	}
	stratum := stratify(p.Rules, cp.idbArity)
	rules := slices.Clone(p.Rules)
	slices.SortStableFunc(rules, func(a, b Rule) int { return stratum[a.HeadPred] - stratum[b.HeadPred] })
	probeCols := make(map[string]map[int]bool)
	for _, r := range rules {
		cr := compiledRule{headPred: r.HeadPred, arity: len(r.Head), stratum: stratum[r.HeadPred], src: r}
		cr.full = compileRuleVariant(r, -1, cat)
		collectProbeCols(cp.idbArity, probeCols, cr.full.steps)
		for pos, a := range r.Body {
			s, idb := stratum[a.Pred]
			recursive := idb && s == cr.stratum
			if !recursive && !ivm {
				continue
			}
			v := compileRuleVariant(r, pos, cat)
			v.recursive = recursive
			collectProbeCols(cp.idbArity, probeCols, v.steps)
			if idb {
				cr.deltas = append(cr.deltas, v)
			} else {
				cr.edbDeltas = append(cr.edbDeltas, v)
			}
		}
		cp.rules = append(cp.rules, cr)
	}
	for lo := 0; lo < len(cp.rules); {
		hi := lo + 1
		for hi < len(cp.rules) && cp.rules[hi].stratum == cp.rules[lo].stratum {
			hi++
		}
		cp.strata = append(cp.strata, cp.rules[lo:hi])
		lo = hi
	}
	for pred, cols := range probeCols {
		for col := range cols {
			cp.idbProbeCols[pred] = append(cp.idbProbeCols[pred], col)
		}
		sort.Ints(cp.idbProbeCols[pred])
	}
	if ivm {
		cp.compileDeletionSupport(cat)
	}
	return cp, nil
}

// stratify assigns every derived predicate its stratum. The strata are the
// strongly connected components of the dependency graph, in which a rule's
// head depends on each derived predicate of its body; a component's stratum
// is one more than the highest stratum of any other component it reads, 0
// when it reads none. Components are found by Tarjan's algorithm, which
// completes a component only after every component it reads, so those
// strata are known when it is numbered.
func stratify(rules []Rule, idb map[string]int) map[string]int {
	deps := make(map[string][]string, len(idb))
	for _, r := range rules {
		for _, a := range r.Body {
			if _, ok := idb[a.Pred]; ok {
				deps[r.HeadPred] = append(deps[r.HeadPred], a.Pred)
			}
		}
	}
	stratum := make(map[string]int, len(idb))
	index := make(map[string]int, len(idb)) // visit order
	low := make(map[string]int, len(idb))   // lowest index reachable on the stack
	onStack := make(map[string]bool, len(idb))
	var stack []string
	var visit func(p string)
	visit = func(p string) {
		index[p], low[p] = len(index), len(index)
		stack = append(stack, p)
		onStack[p] = true
		for _, d := range deps[p] {
			if _, seen := index[d]; !seen {
				visit(d)
				low[p] = min(low[p], low[d])
			} else if onStack[d] {
				low[p] = min(low[p], index[d])
			}
		}
		if low[p] != index[p] {
			return
		}
		i := len(stack) - 1
		for stack[i] != p {
			i--
		}
		comp := stack[i:]
		stack = stack[:i]
		// Members of comp have no stratum yet; every other predicate they
		// read belongs to a completed component.
		s := 0
		for _, c := range comp {
			onStack[c] = false
			for _, d := range deps[c] {
				if ds, done := stratum[d]; done {
					s = max(s, ds+1)
				}
			}
		}
		for _, c := range comp {
			stratum[c] = s
		}
	}
	for _, r := range rules {
		if _, seen := index[r.HeadPred]; !seen {
			visit(r.HeadPred)
		}
	}
	return stratum
}

// collectProbeCols records which IDB columns the steps probe. The delta-root
// step of a delta variant is included too: the same (pred, col) pair is
// probed by the full variant, and recording it unconditionally keeps the
// maintained-index set a superset of what execution asks for.
func collectProbeCols(idb map[string]int, out map[string]map[int]bool, steps []compiledStep) {
	for i := range steps {
		s := &steps[i]
		if s.probeCol < 0 {
			continue
		}
		if _, ok := idb[s.pred]; !ok {
			continue
		}
		if out[s.pred] == nil {
			out[s.pred] = make(map[int]bool)
		}
		out[s.pred][s.probeCol] = true
	}
}

// compileRuleVariant lowers one rule into a variant. deltaPos >= 0 forces
// that body atom to the root of the join order (it will read the delta
// relation at execution time); the remaining atoms are ordered by the same
// bound-columns-first, catalog-estimated policy single-query plans use.
func compileRuleVariant(r Rule, deltaPos int, cat *cost.Catalog) ruleVariant {
	v := ruleVariant{deltaPos: deltaPos}
	if deltaPos >= 0 {
		v.deltaPred = r.Body[deltaPos].Pred
	}
	l := newLowering(cat)
	for _, h := range r.Head {
		if h.Skolem != nil {
			for _, a := range h.Skolem.Args {
				l.need(a)
			}
		} else if h.Term.IsVar() {
			l.need(h.Term.Lex)
		}
	}
	l.begin(r.Body, r.Comparisons, nil)
	sc := compileScratchPool.Get().(*compileScratch)
	v.steps = l.join(r.Body, r.Comparisons, deltaPos, &sc.remaining)
	sc.release()
	v.numSlots, v.empty = l.numSlots, l.empty

	// Head emission. Unbound head or Skolem-argument variables make the
	// rule unsafe; the error is raised on the first body match, matching
	// the interpreter.
	markUnsafe := func(name string) {
		if v.unsafeVar == "" {
			v.unsafeVar = name
		}
	}
	v.head = make([]ruleHeadOp, len(r.Head))
	for i, h := range r.Head {
		switch {
		case h.Skolem != nil:
			cs := &compiledSkolem{name: h.Skolem.Name, argSlots: make([]int, len(h.Skolem.Args))}
			for j, a := range h.Skolem.Args {
				if !l.bound[a] {
					markUnsafe(a)
					continue
				}
				cs.argSlots[j] = l.slots[a]
			}
			v.head[i] = ruleHeadOp{skolem: cs, slot: -1}
		case h.Term.IsConst():
			v.head[i] = ruleHeadOp{slot: -1, constVal: h.Term.Lex}
		default:
			if !l.bound[h.Term.Lex] {
				markUnsafe(h.Term.Lex)
				v.head[i] = ruleHeadOp{slot: -1}
				continue
			}
			v.head[i] = ruleHeadOp{slot: l.slots[h.Term.Lex]}
		}
	}
	return v
}

// variantTask is one rule-variant execution scheduled in a fixpoint or
// maintenance round: the variant plus the tuple batch feeding its root.
type variantTask struct {
	rule  *compiledRule
	v     *ruleVariant
	delta []storage.Tuple // nil for full variants
}

// deltaTasks appends, over rules, one task per non-empty delta variant whose
// predicate has tuples in cur. edb adds the per-EDB-occurrence variants of
// maintenance programs, which seed a round from base-relation changes.
func deltaTasks(tasks []variantTask, rules []compiledRule, cur map[string][]storage.Tuple, edb bool) []variantTask {
	for i := range rules {
		r := &rules[i]
		sets := [2][]ruleVariant{nil, r.deltas}
		if edb {
			sets[0] = r.edbDeltas
		}
		for _, variants := range sets {
			for j := range variants {
				v := &variants[j]
				if v.empty {
					continue
				}
				if d := cur[v.deltaPred]; len(d) > 0 {
					tasks = append(tasks, variantTask{rule: r, v: v, delta: d})
				}
			}
		}
	}
	return tasks
}

// Eval runs the compiled fixpoint over edb and returns a database containing
// the EDB relations plus all derived (IDB) relations, exactly like
// Program.EvalInterp. It clones edb — a clone that shares edb's tables until
// one of the two writes them (storage.Database.Clone) — builds on the clone
// exactly the column indexes the compiled probes ask for (so an unindexed
// input is joined by probes, not nested scans; an index built on the clone
// is the clone's alone), runs the fixpoint over the clone and inserts the
// derived relations into it. edb is only read, and copied only where the
// result is written. A maintenance program (CompileProgramIVM) refuses an
// edb relation named like a derived predicate: deletions could not tell
// its facts from derived ones, so facts given for a derived predicate
// reach it through a rule over a base relation instead.
func (cp *CompiledProgram) Eval(edb *storage.Database) (*storage.Database, error) {
	if cp.ivm {
		for pred := range cp.idbArity {
			if edb.Relation(pred) != nil {
				return nil, fmt.Errorf("datalog: base relation %s is named like a derived predicate of a maintenance program", pred)
			}
		}
	}
	db := edb.Clone()
	cp.freeze(db)
	idb, _, err := cp.run(db, nil, Limits{})
	if err != nil {
		return nil, err
	}
	for pred, derived := range idb {
		rel, err := db.Ensure(pred, derived.Arity())
		if err != nil {
			return nil, err
		}
		// Derived tuples are windows onto the merge's backing arrays, which
		// nothing writes again: stored tuples the database may share.
		rel.Grow(derived.Len())
		for _, t := range derived.Tuples() {
			rel.Adopt(t)
		}
	}
	return db, nil
}

// EvalRelation runs the fixpoint and returns just one relation's tuples —
// the serving path: the engine asks for the answer predicate and skips the
// full-database clone Eval pays for API compatibility. The fixpoint runs
// on the calling goroutine; workers is ignored, kept so that existing
// callers compile. The returned slice is fresh; callers may sort or filter
// it in place.
func (cp *CompiledProgram) EvalRelation(edb *storage.Database, pred string, workers int) ([]storage.Tuple, FixpointStats, error) {
	return cp.evalRelation(edb, pred, nil, Limits{})
}

// evalRelation is the shared implementation behind EvalRelation and
// EvalRelationCtx. On a guard or budget failure the partial stats are
// returned with the error so callers can report progress.
func (cp *CompiledProgram) evalRelation(edb *storage.Database, pred string, gs *guardState, lim Limits) ([]storage.Tuple, FixpointStats, error) {
	idb, stats, err := cp.run(edb, gs, lim)
	if err != nil {
		return nil, stats, err
	}
	if derived, ok := idb[pred]; ok {
		return derived.Tuples(), stats, nil
	}
	if rel := edb.Relation(pred); rel != nil {
		out := make([]storage.Tuple, len(rel.Tuples()))
		copy(out, rel.Tuples())
		return out, stats, nil
	}
	return nil, stats, nil
}

// run evaluates the strata in order, each to its own semi-naive fixpoint:
// the stratum's first round fires its rules' full plans, over lower strata
// that are already final; each later round fires only the stratum's delta
// variants whose predicate gained tuples in the round before, with the delta
// at the join root. A round's delta holds only predicates of the stratum
// being evaluated, so delta variants rooted at a lower stratum (present in
// maintenance programs) never fire here. New tuples are buffered during a
// round and merged (with dedup against the accumulated relation) after it,
// so relations are immutable while any variant is executing.
//
// gs and lim are the governance hooks (nil/zero for unbounded runs):
// cancellation is polled inside the variant loops and at every round
// barrier, stratum boundaries included, and the round/derivation budgets
// are checked where the stats are consistent — so an aborted run returns
// its partial stats with the error.
func (cp *CompiledProgram) run(edb *storage.Database, gs *guardState, lim Limits) (map[string]*storage.Relation, FixpointStats, error) {
	var stats FixpointStats
	idb := make(map[string]*storage.Relation, len(cp.idbArity))
	for pred, arity := range cp.idbArity {
		derived := storage.NewRelation(pred, arity)
		for _, col := range cp.idbProbeCols[pred] {
			derived.BuildColumnIndex(col)
		}
		// A derived predicate may coincide with an EDB relation; its facts
		// seed the accumulated set (the interpreter derives into a clone of
		// that relation). The run only reads them, so they are adopted.
		if rel := edb.Relation(pred); rel != nil {
			if rel.Arity() != arity {
				return nil, stats, fmt.Errorf("storage: relation %s has arity %d, requested %d", pred, rel.Arity(), arity)
			}
			for _, t := range rel.Tuples() {
				derived.Adopt(t)
			}
		}
		idb[pred] = derived
	}

	var tasks []variantTask
	for _, rules := range cp.strata {
		tasks = tasks[:0]
		for i := range rules {
			if r := &rules[i]; !r.full.empty {
				tasks = append(tasks, variantTask{rule: r, v: &r.full})
			}
		}
		for len(tasks) > 0 {
			if err := gs.barrier(); err != nil {
				return nil, stats, err
			}
			if err := checkFixpointBudget(stats, lim); err != nil {
				return nil, stats, err
			}
			stats.Iterations++
			// round is captured by value; tasks, which the loop reassigns,
			// would be moved to the heap.
			round := tasks
			bufs, err := runTaskSet(nil, len(round), func(i int) (*runScratch, error) {
				t := round[i]
				accum := idb[t.rule.headPred]
				return emitVariant(t.v, t.delta, edb, idb, gs, func(h storage.Tuple) bool { return !accum.Contains(h) })
			})
			if err != nil {
				return nil, stats, err
			}
			delta, _ := mergeRound(nil, tasks, bufs, func(r *compiledRule) (*storage.Relation, *storage.Relation, error) {
				return idb[r.headPred], nil, nil
			})
			for _, d := range delta {
				stats.Derived += len(d)
			}
			tasks = deltaTasks(tasks[:0], rules, delta, false)
		}
	}
	if err := gs.failure(); err != nil {
		return nil, stats, err
	}
	return idb, stats, nil
}

// checkFixpointBudget enforces the round and derivation budgets at a round
// barrier (stats are consistent there; a run may overshoot MaxDerived by at
// most the final round's derivations).
func checkFixpointBudget(stats FixpointStats, lim Limits) error {
	if lim.MaxRounds > 0 && stats.Iterations >= lim.MaxRounds {
		return fmt.Errorf("datalog: fixpoint exceeded %d round(s): %w", lim.MaxRounds, ErrBudgetExceeded)
	}
	if lim.MaxDerived > 0 && stats.Derived > lim.MaxDerived {
		return fmt.Errorf("datalog: fixpoint derived more than %d tuple(s): %w", lim.MaxDerived, ErrBudgetExceeded)
	}
	return nil
}

// runTaskSet executes a round's n task bodies in order, collecting each
// body's derivation buffer into bufs, resized; the fixpoint rounds and the
// maintenance rounds (ApplyUpdatesCtx, which passes its scratch's slice)
// share it. Bodies only read round-stable state.
func runTaskSet(bufs []*runScratch, n int, run func(int) (*runScratch, error)) ([]*runScratch, error) {
	bufs = slices.Grow(bufs[:0], n)[:n]
	for i := range bufs {
		var err error
		if bufs[i], err = run(i); err != nil {
			return bufs, err
		}
	}
	return bufs, nil
}

// mergeRound adds a round's buffered rows to the relation target gives each
// task's rule, releases every buffer, and returns, in cur emptied — a new
// map when cur is nil — the tuples that were new, per head predicate. A
// relation only appends here, so a predicate's new tuples are its
// relation's tail: the next round reads them as its delta without a copy,
// and nothing removes from the relation while it runs.
//
// It is the one merge of every round — fixpoint, propagation,
// over-deletion and re-derivation alike. When target returns from, every
// buffered row is one from stores — over-deletion accepts only rows the
// head relation holds, re-derivation only over-deleted ones — and the merge
// adopts from's rows (adoptStored). Otherwise each buffer's rows are copied
// once into a backing array of their own (adoptCopies), so a stored row
// keeps alive only the rows its buffer added, never the pooled buffer or
// the rows the relation already held. On an error the buffers not yet
// merged are left to the collector.
func mergeRound(cur map[string][]storage.Tuple, tasks []variantTask, bufs []*runScratch, target func(*compiledRule) (rel, from *storage.Relation, err error)) (map[string][]storage.Tuple, error) {
	if cur == nil {
		cur = make(map[string][]storage.Tuple)
	} else {
		clear(cur)
	}
	for i, sc := range bufs {
		if sc == nil {
			continue
		}
		if sc.set.Len() > 0 {
			rel, from, err := target(tasks[i].rule)
			if err != nil {
				return nil, err
			}
			before := rel.Len()
			if from != nil {
				adoptStored(rel, from, &sc.set)
			} else {
				adoptCopies(rel, &sc.set)
			}
			if added := rel.Len() - before; added > 0 {
				pred := tasks[i].rule.headPred
				cur[pred] = rel.Tuples()[rel.Len()-len(cur[pred])-added:]
			}
		}
		sc.release()
	}
	return cur, nil
}

// adoptCopies adds buf's rows that rel lacks to rel, in one pass: rel is
// grown for every row, and each row is copied into one backing array of
// the buffer's size and adopted as a capacity-limited window onto it, so
// appending to one row never writes into the next. A row rel already
// holds — another task of the round derived it too — is truncated away and
// overwritten by the next row; the slots past the last adopted row are
// cleared, so the backing keeps no rejected value alive.
func adoptCopies(rel *storage.Relation, buf *RowSet) {
	w, n := buf.width, buf.Len()
	rel.Grow(n)
	backing := make([]string, 0, n*w)
	for k := 0; k < n; k++ {
		backing = adoptRow(rel, backing, buf.row(k))
	}
	clear(backing[len(backing):cap(backing)])
}

// adoptStored adds buf's rows that rel lacks to rel as from's stored rows,
// which every row of buf is, so it allocates no row.
func adoptStored(rel, from *storage.Relation, buf *RowSet) {
	n := buf.Len()
	rel.Grow(n)
	for k := 0; k < n; k++ {
		t, ok := from.Stored(buf.row(k))
		if !ok {
			panic("datalog: a merged row is missing from the relation its round accepted it from")
		}
		rel.Adopt(t)
	}
}

// adoptRow appends t's values to backing and adopts them into rel as a
// capacity-limited window, so appending to one row never writes into the
// next. When rel already holds the row the values are truncated away, to be
// overwritten by the next row. Callers size backing for every row they
// copy, so it never reallocates under the rows adopted before.
func adoptRow(rel *storage.Relation, backing []string, t storage.Tuple) []string {
	at := len(backing)
	backing = append(backing, t...)
	if !rel.Adopt(backing[at:len(backing):len(backing)]) {
		backing = backing[:at]
	}
	return backing
}

// emitVariant enumerates one variant's body matches, the step at the root
// reading delta when it is not nil, and buffers the derived head rows
// accept admits, deduplicated within the buffer by their columns. It only
// reads — inserts happen at the caller's merge — and is the one executor
// behind the fixpoint rounds and every maintenance round (propagation,
// over-deletion, re-derivation); what differs between them is accept, the
// test of a head row against the state being maintained. accept must not
// retain the row: it is the scratch's, rebuilt for every match.
//
// The buffer is a pooled scratch (runScratch), returned with its set
// holding the rows; mergeRound copies them out, or adopts the stored rows
// they equal, and releases it. So a
// rejected match allocates nothing, and an accepted one only amortised
// growth: its place in the pooled set, and its Skolem values in the
// scratch's arena (headScratch.own).
func emitVariant(v *ruleVariant, delta []storage.Tuple, db *storage.Database, idb map[string]*storage.Relation, gs *guardState, accept func(storage.Tuple) bool) (*runScratch, error) {
	sc := scratchPool.Get().(*runScratch)
	sc.v, sc.comp.steps, sc.accept = v, v.steps, accept
	sc.arm(gs)
	sc.frame = slices.Grow(sc.frame, v.numSlots)[:v.numSlots]
	sc.srcs = resolveSteps(sc.srcs, v.steps, delta, db, idb)
	joinSteps(&sc.comp, sc.srcs, 0, sc.frame, sc.g, sc.derive)
	if err := sc.err; err != nil {
		sc.release()
		return nil, err
	}
	return sc, nil
}

// deriveRow is emitVariant's yield: it builds the head row of a complete
// frame and keeps it when it is new to the buffer and accepted. It reports
// false when the variant is unsafe or the derivation budget says to stop.
func (sc *runScratch) deriveRow(frame []string) bool {
	v := sc.v
	if v.unsafeVar != "" {
		sc.err = fmt.Errorf("datalog: unbound head variable %s", v.unsafeVar)
		return false
	}
	row := sc.hs.build(v.head, frame)
	if _, dup := sc.set.find(row); dup || !sc.accept(row) {
		return true
	}
	sc.set.Add(sc.hs.own(v.head))
	// Intra-round backstop for the derivation budget: the authoritative
	// check runs at the round barrier, but a single variant exploding past
	// the whole budget stops here instead of finishing the round.
	return !sc.g.emitRow()
}

// resolveSteps binds a variant's steps to their candidate sources, in srcs
// resized: the delta slice for the delta-root step (scanned: it is the
// small side), the per-call derived relation for predicates in idb — nil
// on the maintenance paths, where derived relations live in db — and the
// database relation otherwise.
func resolveSteps(srcs []stepSrc, steps []compiledStep, delta []storage.Tuple, db *storage.Database, idb map[string]*storage.Relation) []stepSrc {
	srcs = slices.Grow(srcs[:0], len(steps))[:len(steps)]
	for j := range steps {
		s := &steps[j]
		if j == 0 && delta != nil {
			srcs[j] = stepSrc{tuples: delta}
			continue
		}
		rel := idb[s.pred]
		if rel == nil {
			rel = db.Relation(s.pred)
		}
		srcs[j] = resolveStep(rel, s)
	}
	return srcs
}

// headScratch builds the head row a complete frame derives without
// allocating: slot and constant columns are the frame's strings, and the
// Skolem values are written back to back into one reused buffer, which the
// row's Skolem columns view in place. own copies those values into the
// arena, so only a row that is kept pays for them, and a kept row costs no
// allocation of its own.
type headScratch struct {
	row  storage.Tuple
	buf  []byte
	ends []int    // ends[k] is the offset in buf just past the k-th Skolem value
	args []string // one Skolem application's argument values
	// arena holds the kept rows' Skolem values back to back, viewed as
	// strings. A chunk is only appended to: a full one is replaced by a
	// larger new one, never copied or written again, since the values in
	// it are stored tuples' columns. It is dropped, never pooled, at reset.
	arena []byte
}

// The Skolem arena's chunks start at minSkolemChunk bytes and double up to
// maxSkolemChunk; a longer value gets a chunk of its own size.
const (
	minSkolemChunk = 512
	maxSkolemChunk = 16 << 10
)

// build returns the head row of frame. The row and its Skolem values are
// valid until the next call.
func (hs *headScratch) build(head []ruleHeadOp, frame []string) storage.Tuple {
	hs.row = slices.Grow(hs.row[:0], len(head))[:len(head)]
	hs.buf, hs.ends = hs.buf[:0], hs.ends[:0]
	for i, h := range head {
		switch {
		case h.skolem != nil:
			hs.args = hs.args[:0]
			for _, s := range h.skolem.argSlots {
				hs.args = append(hs.args, frame[s])
			}
			hs.buf = appendSkolem(hs.buf, h.skolem.name, hs.args)
			hs.ends = append(hs.ends, len(hs.buf))
		case h.slot >= 0:
			hs.row[i] = frame[h.slot]
		default:
			hs.row[i] = h.constVal
		}
	}
	if len(hs.ends) > 0 {
		hs.view(head, unsafe.String(unsafe.SliceData(hs.buf), len(hs.buf)))
	}
	return hs.row
}

// own gives the last row's Skolem columns values of their own, copied out
// of the buffer into the arena, and returns the row.
func (hs *headScratch) own(head []ruleHeadOp) storage.Tuple {
	if len(hs.ends) > 0 {
		hs.view(head, hs.keep(hs.buf))
	}
	return hs.row
}

// keep appends b to the arena and returns the copy, viewed as a string.
func (hs *headScratch) keep(b []byte) string {
	if cap(hs.arena)-len(hs.arena) < len(b) {
		size := min(max(2*cap(hs.arena), minSkolemChunk), maxSkolemChunk)
		hs.arena = make([]byte, 0, max(size, len(b)))
	}
	start := len(hs.arena)
	hs.arena = append(hs.arena, b...)
	return unsafe.String(unsafe.SliceData(hs.arena[start:]), len(b))
}

// reset empties the scratch for the pool: the row and the arguments drop
// every value they held, and the arena is dropped, since kept rows view it.
func (hs *headScratch) reset() {
	clear(hs.row[:cap(hs.row)])
	clear(hs.args[:cap(hs.args)])
	hs.row, hs.buf, hs.ends, hs.args, hs.arena = hs.row[:0], hs.buf[:0], hs.ends[:0], hs.args[:0], nil
}

// view points the row's Skolem columns into vals, which holds their values
// back to back.
func (hs *headScratch) view(head []ruleHeadOp, vals string) {
	start, k := 0, 0
	for i, h := range head {
		if h.skolem != nil {
			hs.row[i] = vals[start:hs.ends[k]]
			start = hs.ends[k]
			k++
		}
	}
}

// freeze builds exactly the EDB column indexes the program's probes need, so
// a whole-database fixpoint gets index candidates instead of scan fallbacks.
// It mutates edb, so Eval calls it only on its clone — the clone ivm.New
// materializes served state on, whatever indexes the caller's base carries.
// An index built on a relation the clone shares with the caller is the
// clone's alone; the tuples and the set index stay shared.
func (cp *CompiledProgram) freeze(edb *storage.Database) {
	for i := range cp.rules {
		r := &cp.rules[i]
		freezeSteps(edb, r.full.steps, cp.idbArity)
		for j := range r.deltas {
			freezeSteps(edb, r.deltas[j].steps, cp.idbArity)
		}
	}
}

// Describe renders the compiled program for humans: every rule, in
// evaluation order, with its stratum, its full plan and its delta variants,
// one join step per line. Delta variants rooted at a lower stratum, which
// only maintenance runs fire, are marked cross-stratum.
func (cp *CompiledProgram) Describe() string {
	var sb strings.Builder
	for i := range cp.rules {
		r := &cp.rules[i]
		fmt.Fprintf(&sb, "rule %d (stratum %d): %s\n", i, r.stratum, r.src.String())
		describeVariant(&sb, "full", &r.full)
		for j := range r.deltas {
			v := &r.deltas[j]
			label := fmt.Sprintf("Δ%s@%d", v.deltaPred, v.deltaPos)
			if !v.recursive {
				label += " (cross-stratum)"
			}
			describeVariant(&sb, label, v)
		}
		for j := range r.edbDeltas {
			v := &r.edbDeltas[j]
			describeVariant(&sb, fmt.Sprintf("Δ%s@%d (edb)", v.deltaPred, v.deltaPos), v)
		}
	}
	return sb.String()
}

func describeVariant(sb *strings.Builder, label string, v *ruleVariant) {
	fmt.Fprintf(sb, "  %s", label)
	if v.empty {
		sb.WriteString("  (empty: unsatisfiable at compile time)\n")
		return
	}
	if v.unsafeVar != "" {
		fmt.Fprintf(sb, "  (unsafe: %s unbound)", v.unsafeVar)
	}
	sb.WriteByte('\n')
	for j := range v.steps {
		describeStep(sb, "    ", j, &v.steps[j], j == 0 && v.deltaPos >= 0)
	}
}

// Eval computes the fixpoint of the program over the EDB and returns a
// database containing the EDB relations plus all derived (IDB) relations.
// The input database is not modified.
//
// It is CompileProgram followed by CompiledProgram.Eval. Applications
// evaluating the same program repeatedly should CompileProgram once and
// reuse it — the serving engine caches the compiled program in its plan LRU.
func (p *Program) Eval(edb *storage.Database) (*storage.Database, error) {
	cp, err := CompileProgram(p, cost.NewRowCatalog(edb))
	if err != nil {
		return nil, err
	}
	return cp.Eval(edb)
}
