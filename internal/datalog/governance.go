package datalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Resource governance for the compiled executors. Every hot loop in this
// package — the plan candidate loops (compile.go), the semi-naive fixpoint
// rounds (compileprog.go) and the IVM maintenance rounds (ivm.go, delete.go)
// — can run under an evalGuard: a per-goroutine view of a shared guardState
// that amortizes cancellation checks to one atomic load every guardInterval
// candidate rows, so a context-aware execution costs the same as a plain
// one to within noise. Budgets (Limits) bound result rows, derived tuples
// and fixpoint rounds; fixpoint budgets are checked at round barriers,
// where partial-progress stats are already consistent.
//
// The legacy entry points pass a nil guard everywhere, which compiles to a
// single pointer test per candidate row — the pre-governance fast path is
// preserved bit-for-bit.

// ErrCanceled reports that an evaluation observed context cancellation (or
// deadline expiry) and stopped early. Match with errors.Is.
var ErrCanceled = errors.New("datalog: evaluation canceled")

// ErrBudgetExceeded reports that an evaluation exhausted an explicit
// resource budget (Limits). Match with errors.Is; the returned error wraps
// this sentinel with the specific budget that tripped.
var ErrBudgetExceeded = errors.New("datalog: evaluation budget exceeded")

// Limits bounds one evaluation. The zero value means unlimited.
type Limits struct {
	// MaxRows bounds the number of answer rows a plan evaluation may
	// produce. Enumeration aborts as soon as any single worker has emitted
	// more than MaxRows distinct rows, and the final result is checked
	// exactly.
	MaxRows int
	// MaxDerived bounds the total derived-tuple count of a fixpoint or
	// maintenance run, checked at every round barrier (the run may
	// overshoot by at most one round of derivations before stopping).
	MaxDerived int
	// MaxRounds bounds the number of semi-naive rounds of a fixpoint or
	// maintenance run.
	MaxRounds int
}

func (l Limits) zero() bool { return l.MaxRows <= 0 && l.MaxDerived <= 0 && l.MaxRounds <= 0 }

// guardInterval is how many candidate rows each worker visits between
// cancellation polls. 1<<10 keeps the poll cost well under 1% of loop time
// while bounding detection latency to microseconds.
const guardInterval = 1 << 10

// guardState is the per-evaluation cancellation state shared by all
// workers. A nil *guardState disables all checks.
type guardState struct {
	done    <-chan struct{} // context's done channel; nil when ctx can't fire
	maxRows int             // per-worker emitted-row budget; 0 = unlimited
	stopped atomic.Bool     // set once any worker trips; others stop within guardInterval rows
	mu      sync.Mutex
	err     error // first failure; guarded by mu
}

// newGuardState builds the shared state for one evaluation, or nil when
// neither the context nor the limits can ever fire — the legacy fast path.
func newGuardState(ctx context.Context, maxRows int) *guardState {
	done := ctx.Done()
	if done == nil && maxRows <= 0 {
		return nil
	}
	return &guardState{done: done, maxRows: maxRows}
}

// trip records the first failure and tells every worker to stop.
func (gs *guardState) trip(err error) {
	gs.mu.Lock()
	if gs.err == nil {
		gs.err = err
	}
	gs.mu.Unlock()
	gs.stopped.Store(true)
}

// failure returns the first recorded failure, if any. Callers read it only
// after the workers of the current stage have joined.
func (gs *guardState) failure() error {
	if gs == nil {
		return nil
	}
	gs.mu.Lock()
	defer gs.mu.Unlock()
	return gs.err
}

// barrier is the round-boundary check of the fixpoint loops: it surfaces a
// tripped failure and polls the context once per round.
func (gs *guardState) barrier() error {
	if gs == nil {
		return nil
	}
	if err := gs.failure(); err != nil {
		return err
	}
	if gs.done != nil {
		select {
		case <-gs.done:
			gs.trip(ErrCanceled)
			return ErrCanceled
		default:
		}
	}
	return nil
}

// child creates one worker's guard over the shared state. Guards are not
// goroutine-safe; every worker gets its own.
func (gs *guardState) child() *evalGuard {
	if gs == nil {
		return nil
	}
	g := gs.guard()
	return &g
}

// guard is child by value, for callers that own the storage (gs != nil).
func (gs *guardState) guard() evalGuard {
	return evalGuard{s: gs, n: guardInterval, maxRows: gs.maxRows}
}

// evalGuard is one worker's amortized cancellation checker.
type evalGuard struct {
	s       *guardState
	n       int // rows until the next poll
	rows    int // rows emitted by this worker (MaxRows budget)
	maxRows int // copy of s.maxRows, keeping emitRow's fast path inlinable
}

// tick is called once per candidate row; it reports true when the worker
// must stop. All but one call in guardInterval is a decrement and compare —
// kept small enough to inline into the candidate loops, so a live guard
// costs about one branch per row.
func (g *evalGuard) tick() bool {
	g.n--
	if g.n > 0 {
		return false
	}
	return g.poll()
}

// poll is the once-per-guardInterval slow path of tick: one atomic load,
// and a non-blocking context check.
func (g *evalGuard) poll() bool {
	g.n = guardInterval
	if g.s.stopped.Load() {
		return true
	}
	if g.s.done != nil {
		select {
		case <-g.s.done:
			g.s.trip(ErrCanceled)
			return true
		default:
		}
	}
	return false
}

// emitRow records one distinct row produced by this worker and reports true
// when the row budget is exhausted. A single worker's distinct count is a
// lower bound on the evaluation's distinct total, so tripping here is never
// a false positive; the entry points re-check the combined result exactly.
func (g *evalGuard) emitRow() bool {
	if g == nil || g.maxRows <= 0 {
		return false
	}
	g.rows++
	if g.rows <= g.maxRows {
		return false
	}
	return g.tripRows()
}

// tripRows is emitRow's slow path: record the budget failure once.
func (g *evalGuard) tripRows() bool {
	g.s.trip(fmt.Errorf("datalog: row budget of %d exceeded: %w", g.s.maxRows, ErrBudgetExceeded))
	return true
}

// ---- Context-aware plan evaluation ----

// EvalCtx is Eval under a context and limits: evaluation stops within
// ~guardInterval candidate rows of ctx firing, returning ErrCanceled, and
// returns an error wrapping ErrBudgetExceeded when the answer set exceeds
// lim.MaxRows. With a never-firing context and zero limits it is exactly
// Eval. Parameterized plans must use EvalParallelCtx with args.
func (p *CompiledPlan) EvalCtx(ctx context.Context, db *storage.Database, lim Limits) ([]storage.Tuple, error) {
	return p.EvalParallelCtx(ctx, db, nil, 1, lim)
}

// EvalParallelCtx is EvalParallelWith under a context and limits. The
// returned rows are sorted; on error the partial rows are discarded.
func (p *CompiledPlan) EvalParallelCtx(ctx context.Context, db *storage.Database, args []string, workers int, lim Limits) ([]storage.Tuple, error) {
	rows, err := p.EvalParallelUnsortedCtx(ctx, db, args, workers, lim)
	if err != nil {
		return nil, err
	}
	return storage.SortTuples(rows), nil
}

// EvalParallelUnsortedCtx is EvalParallelUnsortedWith under a context and
// limits (unsorted distinct answers in discovery order).
func (p *CompiledPlan) EvalParallelUnsortedCtx(ctx context.Context, db *storage.Database, args []string, workers int, lim Limits) ([]storage.Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	gs := newGuardState(ctx, lim.MaxRows)
	rows := p.evalUnsorted(db, args, workers, gs)
	return finishRows(rows, gs, lim)
}

// finishRows applies the shared post-checks of the ctx entry points: a
// tripped guard wins, then the exact MaxRows check over the combined
// result.
func finishRows(rows []storage.Tuple, gs *guardState, lim Limits) ([]storage.Tuple, error) {
	if err := gs.failure(); err != nil {
		return nil, err
	}
	if lim.MaxRows > 0 && len(rows) > lim.MaxRows {
		return nil, fmt.Errorf("datalog: result has %d row(s), budget is %d: %w", len(rows), lim.MaxRows, ErrBudgetExceeded)
	}
	return rows, nil
}

// ---- Context-aware fixpoint and maintenance ----

// fixpointGuard builds the guard for a fixpoint-shaped run: cancellation
// from ctx, with the per-worker emit backstop wired to the derivation
// budget (the authoritative MaxDerived/MaxRounds checks run at the round
// barriers).
func fixpointGuard(ctx context.Context, lim Limits) *guardState {
	return newGuardState(ctx, lim.MaxDerived)
}

// EvalCtx is EvalParallel under a context and limits. On cancellation or a
// tripped budget the partial database is discarded; use EvalRelationCtx
// when partial-progress stats matter.
func (cp *CompiledProgram) EvalCtx(ctx context.Context, edb *storage.Database, workers int, lim Limits) (*storage.Database, error) {
	if err := ctx.Err(); err != nil {
		return nil, ErrCanceled
	}
	idb, _, err := cp.run(edb, workers, fixpointGuard(ctx, lim), lim)
	if err != nil {
		return nil, err
	}
	return materializeIDB(edb.Clone(), idb)
}

// EvalRelationCtx is EvalRelation under a context and limits. On error the
// returned FixpointStats carry the partial progress (rounds executed,
// tuples derived) at the moment the run stopped.
func (cp *CompiledProgram) EvalRelationCtx(ctx context.Context, edb *storage.Database, pred string, workers int, lim Limits) ([]storage.Tuple, FixpointStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, FixpointStats{}, ErrCanceled
	}
	return cp.evalRelation(edb, pred, workers, fixpointGuard(ctx, lim), lim)
}
