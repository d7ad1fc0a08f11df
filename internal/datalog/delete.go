package datalog

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Non-monotone incremental maintenance: deletions and mixed update batches.
//
// Inserting into a materialized program is monotone — every new derivation
// is found by a delta plan and merged (ivm.go). Deleting is not: a derived
// tuple must disappear exactly when its *last* derivation does, which set
// semantics cannot see. Two classical algorithms close the gap, selected
// per compiled program:
//
//   - counting, for flat programs (no rule body mentions a derived
//     predicate — the shape of materialized view sets): every derived tuple
//     carries its exact derivation multiplicity. Rules are re-compiled into
//     counting variants that keep every body variable, so one emission is
//     one distinct derivation; delta variants make the per-batch counts
//     exact by first-changed-occurrence attribution (a derivation touching
//     k changed tuples is counted once, at its first changed body
//     occurrence). A deletion decrements, and the tuple is retracted when
//     its count reaches zero — no re-derivation queries at all.
//
//   - DRed (delete-and-rederive), for everything else (recursive programs,
//     multi-level rules such as inverse-rules output, and programs whose
//     derived predicates coincide with base relations): an over-deletion
//     fixpoint runs the same delta variants insert propagation uses, over the
//     still-intact pre-delete database, marking everything that *might*
//     have lost support; the marked tuples are physically removed; then a
//     bounded semi-naive pass re-derives the survivors — round 0 runs each
//     rule rooted at its own head (fed by the over-deleted set), later
//     rounds propagate re-insertions through the ordinary IDB delta
//     variants until quiescence.
//
// ApplyUpdates is the single entry point: a mixed batch (deletes applied
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

// MaintState is the per-maintained-database deletion state of a compiled
// program: the baseline fact keys (derived predicates seeded from
// same-named base relations at materialization — their support is the
// relation itself and can never be deleted), and, for flat programs, the
// lazily built derivation counts. Build one with NewMaintState over the
// *pre-materialization* base database and pass it to every ApplyUpdates
// call against the same maintained database. A nil state is accepted
// (empty baseline, counts rebuilt per call) but wasteful for flat programs.
type MaintState struct {
	baseline map[string]map[string]bool
	// counts maps derived predicate -> tuple key -> exact derivation count
	// (baseline facts contribute one). Built on the first deletion by one
	// counting enumeration of every rule; nil until then.
	counts map[string]map[string]int
	ready  bool
}

// NewMaintState captures the deletion state of a database about to be
// materialized: the facts of every derived predicate that already exist as
// base facts. Call it on the base database before CompiledProgram.Eval.
func (cp *CompiledProgram) NewMaintState(base *storage.Database) *MaintState {
	st := &MaintState{}
	for pred, arity := range cp.idbArity {
		rel := base.Relation(pred)
		if rel == nil || rel.Arity() != arity || rel.Len() == 0 {
			continue
		}
		keys := make(map[string]bool, rel.Len())
		for _, t := range rel.Tuples() {
			keys[t.Key()] = true
		}
		if st.baseline == nil {
			st.baseline = make(map[string]map[string]bool)
		}
		st.baseline[pred] = keys
	}
	return st
}

// CountsReady reports whether the flat-program derivation counts have been
// built (they are built lazily, on the first deletion).
func (st *MaintState) CountsReady() bool { return st != nil && st.ready }

// BaselineKeys exports the deletion baseline for persistence: per derived
// predicate, the keys (Tuple.Key form) of facts that pre-existed as base
// facts when the program was materialized. The derivation counts are
// deliberately not exported — they are a cache rebuilt lazily from the
// database on the first deletion, so a state restored from these keys is
// exactly as capable as the original.
func (st *MaintState) BaselineKeys() map[string][]string {
	if st == nil || st.baseline == nil {
		return nil
	}
	out := make(map[string][]string, len(st.baseline))
	for pred, keys := range st.baseline {
		ks := make([]string, 0, len(keys))
		for k := range keys {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out[pred] = ks
	}
	return out
}

// RestoreMaintState rebuilds the deletion state a NewMaintState call
// captured, from keys previously exported by BaselineKeys — the recovery
// path, where the pre-materialization base database no longer exists but
// its view-named facts were persisted. Keys naming predicates the program
// does not derive are dropped.
func (cp *CompiledProgram) RestoreMaintState(keys map[string][]string) *MaintState {
	st := &MaintState{}
	for pred, ks := range keys {
		if _, ok := cp.idbArity[pred]; !ok || len(ks) == 0 {
			continue
		}
		m := make(map[string]bool, len(ks))
		for _, k := range ks {
			m[k] = true
		}
		if st.baseline == nil {
			st.baseline = make(map[string]map[string]bool)
		}
		st.baseline[pred] = m
	}
	return st
}

// baselineOf is the baseline key set of one derived predicate, nil when it
// has none.
func (st *MaintState) baselineOf(pred string) map[string]bool {
	if st == nil {
		return nil
	}
	return st.baseline[pred]
}

// initCounts builds the exact derivation counts by one counting enumeration
// of every rule over the current database — the lazy, read-only
// initialization paid on the first deletion.
func (st *MaintState) initCounts(cp *CompiledProgram, db *storage.Database, workers int, gs *guardState) error {
	res, err := cp.runCountVariants(db, nil, workers, gs)
	if err != nil {
		return err
	}
	st.counts = make(map[string]map[string]int, len(cp.idbArity))
	for pred := range cp.idbArity {
		st.counts[pred] = make(map[string]int)
	}
	for pred, m := range res {
		cm := st.counts[pred]
		for key, ct := range m {
			cm[key] += ct.n
		}
	}
	for pred, keys := range st.baseline {
		cm := st.counts[pred]
		if cm == nil {
			continue
		}
		for key := range keys {
			cm[key]++
		}
	}
	st.ready = true
	return nil
}

// commit applies a batch's count changes after every mutation succeeded.
func (st *MaintState) commit(decs, incs map[string]map[string]*countedTuple) {
	for pred, m := range decs {
		cm := st.counts[pred]
		if cm == nil {
			continue
		}
		for key, ct := range m {
			if n := cm[key] - ct.n; n > 0 {
				cm[key] = n
			} else {
				delete(cm, key)
			}
		}
	}
	for pred, m := range incs {
		cm := st.counts[pred]
		if cm == nil {
			cm = make(map[string]int)
			st.counts[pred] = cm
		}
		for key, ct := range m {
			cm[key] += ct.n
		}
	}
}

// ---- counting plan variants ----

// recipeCol rebuilds one column of a body occurrence from the frame.
type recipeCol struct {
	slot     int // -1 → constant
	constVal string
}

// occRecipe rebuilds the tuple one body occurrence matched — possible in a
// counting variant because every body variable holds a slot.
type occRecipe struct {
	pred string
	cols []recipeCol
}

// countVariant is a rule compiled for derivation counting: a ruleVariant
// with every body variable kept (compileRuleVariant's keepAll), so the
// executor emits once per distinct body assignment — no don't-care elision,
// no step dedup. prior holds the rebuild recipes of the body occurrences
// strictly before deltaPos (in body order): the first-changed-occurrence
// filter rejects a match whose earlier occurrence already used a changed
// tuple, making the batch delta an exact multiset.
type countVariant struct {
	ruleVariant
	prior []occRecipe
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
// indexed like cp.rules: counting variants for flat programs, head-rooted
// support variants for the DRed re-derivation pass otherwise.
func (cp *CompiledProgram) compileDeletionSupport(cat *cost.Catalog) {
	cp.flat = true
	for i := range cp.rules {
		for _, a := range cp.rules[i].src.Body {
			if _, idb := cp.idbArity[a.Pred]; idb {
				cp.flat = false
			}
		}
	}
	if cp.flat {
		cp.countFull = make([]countVariant, len(cp.rules))
		cp.countDeltas = make([][]countVariant, len(cp.rules))
		for i := range cp.rules {
			r := cp.rules[i].src
			cp.countFull[i] = compileCountVariant(r, -1, cat)
			cvs := make([]countVariant, len(r.Body))
			for pos := range r.Body {
				cvs[pos] = compileCountVariant(r, pos, cat)
			}
			cp.countDeltas[i] = cvs
		}
		return
	}
	cp.supports = make([]supportVariant, len(cp.rules))
	for i := range cp.rules {
		cp.supports[i] = compileSupportVariant(cp.rules[i].src, cat)
	}
}

// compileCountVariant lowers one rule into a counting variant: the rule
// variant with every body variable in the frame, plus the recipes that
// rebuild the occurrences before deltaPos from it.
func compileCountVariant(r Rule, deltaPos int, cat *cost.Catalog) countVariant {
	rv, slots := compileRuleVariant(r, deltaPos, cat, true)
	v := countVariant{ruleVariant: rv}
	for pos := 0; pos < deltaPos; pos++ {
		a := r.Body[pos]
		rc := occRecipe{pred: a.Pred, cols: make([]recipeCol, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar() {
				rc.cols[i] = recipeCol{slot: slots[t.Lex]}
			} else {
				rc.cols[i] = recipeCol{slot: -1, constVal: t.Lex}
			}
		}
		v.prior = append(v.prior, rc)
	}
	return v
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
	v, _ := compileRuleVariant(sr, 0, cat, false)
	return supportVariant{rooted: true, v: v}
}

// ---- counting execution ----

// countedTuple is one derived tuple with the derivations a counting run
// attributed to it.
type countedTuple struct {
	t storage.Tuple
	n int
}

// runCountVariants enumerates derivation counts per derived tuple. With
// batch == nil it runs every rule's full counting variant — the exact
// counts of the current database. With a batch it runs the delta counting
// variants whose root predicate changed, over db, counting only matches
// whose earlier body occurrences avoid the batch (first-changed-occurrence
// attribution): over the post-insert database this is the exact count
// increment of the batch, over the pre-delete database the exact decrement.
func (cp *CompiledProgram) runCountVariants(db *storage.Database, batch map[string][]storage.Tuple, workers int, gs *guardState) (map[string]map[string]*countedTuple, error) {
	type countTask struct {
		pred  string
		v     *countVariant
		delta []storage.Tuple
	}
	var tasks []countTask
	if batch == nil {
		for i := range cp.rules {
			if v := &cp.countFull[i]; !v.empty {
				tasks = append(tasks, countTask{pred: cp.rules[i].headPred, v: v})
			}
		}
	} else {
		for i := range cp.rules {
			for j := range cp.countDeltas[i] {
				v := &cp.countDeltas[i][j]
				if v.empty {
					continue
				}
				if d := batch[v.deltaPred]; len(d) > 0 {
					tasks = append(tasks, countTask{pred: cp.rules[i].headPred, v: v, delta: d})
				}
			}
		}
	}
	if len(tasks) == 0 {
		return nil, nil
	}
	var batchKeys map[string]map[string]bool
	if batch != nil {
		batchKeys = make(map[string]map[string]bool, len(batch))
		for pred, ts := range batch {
			ks := make(map[string]bool, len(ts))
			for _, t := range ts {
				ks[t.Key()] = true
			}
			batchKeys[pred] = ks
		}
	}
	results, err := runTaskSet(len(tasks), workers, func(i int) (map[string]*countedTuple, error) {
		t := tasks[i]
		return cp.countVariantRun(db, t.v, t.delta, batchKeys, gs.child())
	})
	if gerr := gs.failure(); gerr != nil {
		return nil, gerr
	}
	if err != nil {
		return nil, err
	}
	merged := make(map[string]map[string]*countedTuple)
	for i, res := range results {
		if len(res) == 0 {
			continue
		}
		dst := merged[tasks[i].pred]
		if dst == nil {
			merged[tasks[i].pred] = res
			continue
		}
		for key, ct := range res {
			if prev := dst[key]; prev != nil {
				prev.n += ct.n
			} else {
				dst[key] = ct
			}
		}
	}
	return merged, nil
}

// countVariantRun enumerates one counting variant's matches, returning the
// per-tuple derivation counts it attributes.
func (cp *CompiledProgram) countVariantRun(db *storage.Database, v *countVariant, delta []storage.Tuple, batchKeys map[string]map[string]bool, g *evalGuard) (map[string]*countedTuple, error) {
	srcs := resolveSteps(v.steps, delta, db, nil)
	// Only earlier occurrences of predicates actually in the batch can
	// steal attribution; resolve those checks once.
	type priorCheck struct {
		keys map[string]bool
		cols []recipeCol
	}
	var checks []priorCheck
	for _, rc := range v.prior {
		if ks := batchKeys[rc.pred]; ks != nil {
			checks = append(checks, priorCheck{keys: ks, cols: rc.cols})
		}
	}
	comp := compiledComponent{steps: v.steps}
	frame := make([]string, v.numSlots)
	out := make(map[string]*countedTuple)
	var keyBuf []byte
	var ks keyScratch
	var evalErr error
	joinSteps(&comp, srcs, 0, frame, g, func(frame []string) bool {
		if v.unsafeVar != "" {
			evalErr = fmt.Errorf("datalog: unbound head variable %s", v.unsafeVar)
			return false
		}
		for _, pc := range checks {
			keyBuf = keyBuf[:0]
			for i, c := range pc.cols {
				if i > 0 {
					keyBuf = append(keyBuf, 0x1f)
				}
				if c.slot >= 0 {
					keyBuf = append(keyBuf, frame[c.slot]...)
				} else {
					keyBuf = append(keyBuf, c.constVal...)
				}
			}
			if pc.keys[string(keyBuf)] {
				return true // counted at the earlier changed occurrence
			}
		}
		// Only the first derivation of a tuple allocates its key and tuple;
		// every further one is a count on the scratch key.
		kb := ks.key(v.head, frame)
		if ct := out[string(kb)]; ct != nil {
			ct.n++
			return true
		}
		k := string(kb)
		out[k] = &countedTuple{t: ks.tuple(v.head, frame, k), n: 1}
		return true
	})
	return out, evalErr
}

// ---- mixed batch application ----

// ApplyUpdates applies a mixed batch — deletions, then insertions, either
// possibly nil — to a maintained database, keeping every derived extent
// exact: counting for flat programs, DRed for the rest (see the package
// comment above). db must hold the accumulated derived relations alongside
// the base relations (the database CompiledProgram.Eval returns, or one
// maintained by earlier calls). The batch is validated before anything is
// mutated and is atomic: on any error the database is rolled back to its
// pre-batch state (a panic rolls back, then re-panics). Predicates derived
// by the program are rejected on both sides; deletions of absent tuples
// and insertions of present ones are no-ops. st carries the deletion state
// across batches (NewMaintState); nil is accepted but rebuilds flat counts
// every call.
func (cp *CompiledProgram) ApplyUpdates(db *storage.Database, st *MaintState, inserts, deletes map[string][]storage.Tuple, workers int) (*UpdateResult, error) {
	return cp.applyUpdates(db, st, inserts, deletes, workers, nil, Limits{})
}

// ApplyUpdatesCtx is ApplyUpdates under a context and limits. Cancellation
// or a tripped budget never leaves a partial state: the journal rolls the
// batch back before the error returns.
func (cp *CompiledProgram) ApplyUpdatesCtx(ctx context.Context, db *storage.Database, st *MaintState, inserts, deletes map[string][]storage.Tuple, workers int, lim Limits) (*UpdateResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	return cp.applyUpdates(db, st, inserts, deletes, workers, fixpointGuard(ctx, lim), lim)
}

func (cp *CompiledProgram) applyUpdates(db *storage.Database, st *MaintState, inserts, deletes map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (res *UpdateResult, err error) {
	if !cp.ivm {
		return nil, ErrNotMaintenance
	}
	if err := cp.validateDeletes(db, deletes); err != nil {
		return nil, err
	}
	if err := cp.validateInserts(db, inserts); err != nil {
		return nil, err
	}

	// Effective deletions: present tuples only, deduplicated per predicate.
	delEff := make(map[string][]storage.Tuple)
	for pred, tuples := range deletes {
		rel := db.Relation(pred)
		if rel == nil {
			continue
		}
		dedup := make(map[string]bool, len(tuples))
		for _, t := range tuples {
			k := t.Key()
			if dedup[k] || !rel.ContainsKey(k) {
				continue
			}
			dedup[k] = true
			delEff[pred] = append(delEff[pred], t)
		}
	}

	j := storage.NewJournal(db)
	defer func() {
		if r := recover(); r != nil {
			j.Rollback()
			panic(r)
		}
	}()
	switch {
	case len(delEff) == 0 && !(cp.flat && st.CountsReady()):
		// Nothing to retract and no derivation counts to keep exact (they
		// are built by the first deletion and maintained by every batch
		// after it): the batch is its insert phase.
		res = &UpdateResult{}
		j.MarkInserts()
		res.BaseInserted, res.Derived, res.Stats, err = cp.applyInserts(db, inserts, workers, gs, lim)
	case cp.flat:
		if st == nil {
			st = &MaintState{}
		}
		res, err = cp.applyCounting(db, st, j, inserts, delEff, workers, gs, lim)
	default:
		res, err = cp.applyDRed(db, st, j, inserts, delEff, workers, gs, lim)
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

// applyCounting is the flat-program batch path: exact decrements over the
// pre-delete database, retraction at count zero, then insertion and exact
// increments over the post-insert database. Counts are committed only
// after every mutation succeeded, so a rolled-back batch never skews them.
func (cp *CompiledProgram) applyCounting(db *storage.Database, st *MaintState, j *storage.Journal, inserts, delEff map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (*UpdateResult, error) {
	res := &UpdateResult{
		Derived:   make(map[string][]storage.Tuple),
		Retracted: make(map[string][]storage.Tuple),
	}
	if !st.ready {
		if err := st.initCounts(cp, db, workers, gs); err != nil {
			return nil, err
		}
	}
	var decs map[string]map[string]*countedTuple
	if len(delEff) > 0 {
		var err error
		decs, err = cp.runCountVariants(db, delEff, workers, gs)
		if err != nil {
			return nil, err
		}
		res.Stats.Iterations++
		for pred, tuples := range delEff {
			for _, t := range tuples {
				j.Remove(pred, t)
			}
		}
		for pred, m := range decs {
			for key, ct := range m {
				if st.counts[pred][key]-ct.n <= 0 && !st.baselineOf(pred)[key] {
					if j.Remove(pred, ct.t) {
						res.Retracted[pred] = append(res.Retracted[pred], ct.t)
					}
				}
			}
		}
	}
	j.MarkInserts()
	fresh, err := insertBase(db, inserts)
	if err != nil {
		return nil, err
	}
	res.BaseInserted = fresh
	var incs map[string]map[string]*countedTuple
	if len(fresh) > 0 {
		incs, err = cp.runCountVariants(db, fresh, workers, gs)
		if err != nil {
			return nil, err
		}
		res.Stats.Iterations++
		for pred, m := range incs {
			rel, err := db.Ensure(pred, cp.idbArity[pred])
			if err != nil {
				return nil, err
			}
			for key, ct := range m {
				if !rel.ContainsKey(key) {
					rel.Insert(ct.t)
					res.Derived[pred] = append(res.Derived[pred], ct.t)
					res.Stats.Derived++
				}
			}
		}
	}
	if lim.MaxDerived > 0 && res.Stats.Derived > lim.MaxDerived {
		return nil, fmt.Errorf("datalog: maintenance derived more than %d tuple(s): %w", lim.MaxDerived, ErrBudgetExceeded)
	}
	st.commit(decs, incs)
	return res, nil
}

// applyDRed is the non-flat batch path: over-delete via the delta variants
// over the intact pre-delete database, remove, re-derive survivors with a
// bounded semi-naive pass, then run the insert phase (applyInserts).
func (cp *CompiledProgram) applyDRed(db *storage.Database, st *MaintState, j *storage.Journal, inserts, delEff map[string][]storage.Tuple, workers int, gs *guardState, lim Limits) (*UpdateResult, error) {
	res := &UpdateResult{Retracted: make(map[string][]storage.Tuple)}
	od, err := cp.overDelete(db, st, delEff, workers, gs, lim, &res.Stats)
	if err != nil {
		return nil, err
	}
	for pred, tuples := range delEff {
		for _, t := range tuples {
			j.Remove(pred, t)
		}
	}
	for pred, m := range od {
		for _, t := range m {
			j.Remove(pred, t)
		}
	}
	j.MarkInserts()
	if err := cp.rederive(db, od, workers, gs, lim, &res.Stats); err != nil {
		return nil, err
	}
	for pred, m := range od {
		for _, t := range m {
			res.Retracted[pred] = append(res.Retracted[pred], t)
		}
	}
	fresh, derived, istats, err := cp.applyInserts(db, inserts, workers, gs, lim)
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
// over-approximation — against the still-intact pre-delete database.
// Baseline facts are never over-deleted: their support is the base
// relation itself, and deletions into derived predicates are rejected.
func (cp *CompiledProgram) overDelete(db *storage.Database, st *MaintState, delEff map[string][]storage.Tuple, workers int, gs *guardState, lim Limits, stats *FixpointStats) (map[string]map[string]storage.Tuple, error) {
	od := make(map[string]map[string]storage.Tuple)
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
		// materialized, not yet over-deleted, and not a baseline fact.
		bufs, err := runTaskSet(len(tasks), workers, func(i int) ([]derivedTuple, error) {
			t := tasks[i]
			pred := t.rule.headPred
			headRel, dead, baseline := db.Relation(pred), od[pred], st.baselineOf(pred)
			if headRel == nil {
				return nil, nil
			}
			return emitVariant(t.v, resolveSteps(t.v.steps, t.delta, db, nil), gs.child(), func(k []byte) bool {
				_, gone := dead[string(k)]
				return headRel.ContainsKeyBytes(k) && !gone && !baseline[string(k)]
			})
		})
		if err != nil {
			return nil, err
		}
		cur = make(map[string][]storage.Tuple)
		for i, buf := range bufs {
			pred := tasks[i].rule.headPred
			m := od[pred]
			if m == nil {
				m = make(map[string]storage.Tuple)
				od[pred] = m
			}
			for _, d := range buf {
				if _, dead := m[d.key]; dead {
					continue
				}
				m[d.key] = d.t
				cur[pred] = append(cur[pred], d.t)
				stats.Derived++
			}
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
func (cp *CompiledProgram) rederive(db *storage.Database, od map[string]map[string]storage.Tuple, workers int, gs *guardState, lim Limits, stats *FixpointStats) error {
	var tasks []variantTask
	for i := range cp.rules {
		r := &cp.rules[i]
		if len(od[r.headPred]) == 0 {
			continue
		}
		sv := &cp.supports[i]
		if sv.rooted {
			if sv.v.empty {
				continue
			}
			feed := make([]storage.Tuple, 0, len(od[r.headPred]))
			for _, t := range od[r.headPred] {
				feed = append(feed, t)
			}
			tasks = append(tasks, variantTask{rule: r, v: &sv.v, delta: feed})
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
		bufs, err := runTaskSet(len(tasks), workers, func(i int) ([]derivedTuple, error) {
			t := tasks[i]
			missing := od[t.rule.headPred]
			return emitVariant(t.v, resolveSteps(t.v.steps, t.delta, db, nil), gs.child(), func(k []byte) bool {
				_, want := missing[string(k)]
				return want
			})
		})
		if err != nil {
			return err
		}
		cur := make(map[string][]storage.Tuple)
		for i, buf := range bufs {
			pred := tasks[i].rule.headPred
			rel, err := db.Ensure(pred, tasks[i].rule.arity)
			if err != nil {
				return err
			}
			for _, d := range buf {
				if rel.Insert(d.t) {
					delete(od[pred], d.key)
					cur[pred] = append(cur[pred], d.t)
				}
			}
		}
		tasks = slices.DeleteFunc(deltaTasks(tasks[:0], cp.rules, cur, false), func(t variantTask) bool {
			return len(od[t.rule.headPred]) == 0
		})
	}
	return gs.failure()
}
