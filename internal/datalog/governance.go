package datalog

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/storage"
)

// Resource governance for the compiled executors. Every hot loop in this
// package — the plan candidate loops (compile.go), the semi-naive fixpoint
// rounds (compileprog.go) and the IVM maintenance rounds (ivm.go, delete.go)
// — can run under an evalGuard: one run's view of its evaluation's
// guardState that amortizes cancellation checks to one poll every
// guardInterval candidate rows, so a context-aware execution costs the same
// as a plain one to within noise. An evaluation runs on the calling
// goroutine, so neither is ever shared across goroutines. Budgets (Limits)
// bound result rows, derived tuples and fixpoint rounds; fixpoint budgets
// are checked at round barriers, where partial-progress stats are already
// consistent.
//
// The context-free entry points pass a nil guard everywhere, which compiles
// to a single pointer test per candidate row — the pre-governance fast path
// is preserved bit-for-bit.

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
	// produce. Enumeration aborts as soon as one component's run has
	// emitted more than MaxRows distinct rows, and the final result is
	// checked exactly.
	MaxRows int
	// MaxDerived bounds the total derived-tuple count of a fixpoint or
	// maintenance run, checked at every round barrier (the run may
	// overshoot by at most one round of derivations before stopping).
	MaxDerived int
	// MaxRounds bounds the number of semi-naive rounds of a fixpoint or
	// maintenance run. A stratified fixpoint counts its rounds across
	// strata, each stratum's full-plan round included, so the budget
	// trips at the first round barrier — within a stratum or between
	// two — once that many rounds have run.
	MaxRounds int
}

// guardInterval is how many candidate rows a run visits between
// cancellation polls. 1<<10 keeps the poll cost well under 1% of loop time
// while bounding detection latency to microseconds.
const guardInterval = 1 << 10

// guardState is one evaluation's cancellation state, read by the guards of
// all its runs. A nil *guardState disables all checks.
type guardState struct {
	done    <-chan struct{} // context's done channel; nil when ctx can't fire
	maxRows int             // per-run emitted-row budget; 0 = unlimited
	err     error           // first failure; every run stops at its next poll
}

// newGuardState builds the state for one evaluation, or nil when neither
// the context nor the limits can ever fire — the legacy fast path.
func newGuardState(ctx context.Context, maxRows int) *guardState {
	done := ctx.Done()
	if done == nil && maxRows <= 0 {
		return nil
	}
	return &guardState{done: done, maxRows: maxRows}
}

// trip records the first failure.
func (gs *guardState) trip(err error) {
	if gs.err == nil {
		gs.err = err
	}
}

// failure returns the first recorded failure, if any.
func (gs *guardState) failure() error {
	if gs == nil {
		return nil
	}
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

// child creates a guard of its own for one run over gs.
func (gs *guardState) child() *evalGuard {
	if gs == nil {
		return nil
	}
	g := gs.guard()
	return &g
}

// guard is child by value, for callers that own the storage (gs != nil).
func (gs *guardState) guard() evalGuard {
	left := math.MaxInt
	if gs.maxRows > 0 {
		left = gs.maxRows
	}
	return evalGuard{s: gs, n: guardInterval, left: left}
}

// evalGuard is one run's amortized cancellation checker.
type evalGuard struct {
	s    *guardState
	n    int // rows until the next poll
	left int // distinct rows this run may still emit (MaxRows budget)
}

// tick is called once per candidate row; it reports true when the run
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

// poll is the once-per-guardInterval slow path of tick: a recorded failure
// stops the run, and so does a fired context.
func (g *evalGuard) poll() bool {
	g.n = guardInterval
	if g.s.err != nil {
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

// emitRow records one distinct row produced by this run and reports true
// when the row budget is exhausted. A single run's distinct count is a
// lower bound on the evaluation's distinct total, so tripping here is never
// a false positive; the entry points re-check the combined result exactly.
// It stays small enough to inline into the emit paths.
func (g *evalGuard) emitRow() bool {
	if g == nil {
		return false
	}
	g.left--
	return g.left < 0 && g.tripRows()
}

// tripRows is emitRow's slow path: record the budget failure.
func (g *evalGuard) tripRows() bool {
	g.s.trip(fmt.Errorf("datalog: row budget of %d exceeded: %w", g.s.maxRows, ErrBudgetExceeded))
	return true
}

// ---- Context-aware plan evaluation ----

// EvalIntoCtx is EvalParallelUnsortedWith under a context and limits,
// adding the distinct answers to into instead of returning them: a run
// into an empty set hands over its own row set's storage, so no row is
// copied. Evaluation stops within ~guardInterval candidate rows of ctx
// firing, returning ErrCanceled, and returns an error wrapping
// ErrBudgetExceeded when the plan's answers exceed lim.MaxRows; on error
// into holds partial rows, which the caller discards. Several plans may
// add into one set (the members of a union): each dedups against the rows
// already there, and lim.MaxRows bounds each plan's own answers.
func (p *CompiledPlan) EvalIntoCtx(ctx context.Context, db *storage.Database, args []string, lim Limits, into *RowSet) error {
	if err := ctx.Err(); err != nil {
		return ErrCanceled
	}
	gs := newGuardState(ctx, lim.MaxRows)
	n := p.evalInto(db, args, gs, into)
	// A tripped guard wins, then the exact MaxRows check over the combined
	// result.
	if err := gs.failure(); err != nil {
		return err
	}
	if lim.MaxRows > 0 && n > lim.MaxRows {
		return fmt.Errorf("datalog: result has %d row(s), budget is %d: %w", n, lim.MaxRows, ErrBudgetExceeded)
	}
	return nil
}

// ---- Context-aware fixpoint and maintenance ----

// fixpointGuard builds the guard for a fixpoint-shaped run: cancellation
// from ctx, with the per-run emit backstop wired to the derivation
// budget (the authoritative MaxDerived/MaxRounds checks run at the round
// barriers).
func fixpointGuard(ctx context.Context, lim Limits) *guardState {
	return newGuardState(ctx, lim.MaxDerived)
}

// EvalRelationCtx is EvalRelation under a context and limits. On error the
// returned FixpointStats carry the partial progress (rounds executed,
// tuples derived) at the moment the run stopped.
func (cp *CompiledProgram) EvalRelationCtx(ctx context.Context, edb *storage.Database, pred string, lim Limits) ([]storage.Tuple, FixpointStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, FixpointStats{}, ErrCanceled
	}
	return cp.evalRelation(edb, pred, fixpointGuard(ctx, lim), lim)
}
