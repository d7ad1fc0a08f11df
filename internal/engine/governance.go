package engine

// Resource governance at the serving boundary. Three mechanisms compose
// here, all opt-in and all zero-cost when disabled:
//
//   - Budgets (Budget, passed to the *Budget entry points) bound one
//     request: a wall-clock deadline plus caps on result rows, derived
//     tuples and fixpoint rounds, enforced inside the compiled executors by
//     amortized guards (datalog.Limits). A tripped budget returns a typed
//     error — ErrCanceled or ErrBudgetExceeded — with partial-progress
//     fixpoint stats attached (QueryError) where they exist.
//
//   - Admission control (Options.MaxConcurrent) bounds how many requests
//     execute at once: a weighted semaphore with a bounded FIFO wait queue.
//     Requests beyond the queue bound are shed with an OverloadedError
//     carrying a retry-after hint, so overload turns into fast, typed
//     refusals instead of goroutine pileup; a queued request waits until it
//     is granted or its context (Budget.Deadline) fires.
//
//   - Panic isolation: every public execution entry point recovers panics
//     from plan evaluation and maintenance into a typed InternalError
//     (matching ErrInternal), so one poisoned plan or malformed tuple
//     cannot take down a serving process. Invariant panics still carry
//     their message and stack in the error for diagnosis.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/ivm"
	"repro/internal/storage"
)

// ErrCanceled reports that a request's context was canceled (or its
// deadline expired) mid-evaluation. It aliases datalog.ErrCanceled so
// errors.Is matches across layers.
var ErrCanceled = datalog.ErrCanceled

// ErrBudgetExceeded reports that a request exhausted an explicit resource
// budget (Budget). It aliases datalog.ErrBudgetExceeded.
var ErrBudgetExceeded = datalog.ErrBudgetExceeded

// ErrOverloaded reports that admission control shed the request: the
// engine was at MaxConcurrent with a full wait queue. Match with errors.Is;
// the concrete error is an *OverloadedError carrying a retry-after hint.
// A queued request whose context fires returns ErrCanceled instead.
var ErrOverloaded = errors.New("engine: overloaded")

// ErrInternal reports that an evaluation panicked and the engine boundary
// converted the panic into an error. Match with errors.Is; the concrete
// error is an *InternalError carrying the panic value and stack.
var ErrInternal = errors.New("engine: internal error")

// ErrArityMismatch reports a caller-supplied arity error at the serving
// boundary: a prepared query executed with the wrong number of arguments.
// Match with errors.Is.
var ErrArityMismatch = errors.New("engine: arity mismatch")

// ErrDurability reports a durable-storage write failure. The store is
// fail-stop: once a WAL append fails, every later mutation returns this
// error while reads keep serving — the on-disk state stays a consistent
// prefix of the acknowledged history. Match with errors.Is.
var ErrDurability = errors.New("engine: durable storage failure")

// OverloadedError is the concrete shed error: errors.Is(err, ErrOverloaded)
// matches it, and RetryAfter hints when capacity is likely to free up
// (current queue length times the engine's average execution time).
type OverloadedError struct {
	// RetryAfter estimates how long until a retried request would be
	// admitted. A hint, not a guarantee.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("engine: overloaded, retry after %v", e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// InternalError is the concrete panic-isolation error:
// errors.Is(err, ErrInternal) matches it, and the panic value plus stack
// trace are preserved for diagnosis.
type InternalError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("engine: internal error: %v", e.Value)
}

// Is makes errors.Is(err, ErrInternal) match.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// QueryError wraps an evaluation failure with the partial-progress fixpoint
// stats at the moment the run stopped — how many rounds ran and how many
// tuples were derived before the deadline or budget tripped. Unwrap exposes
// the cause, so errors.Is(err, ErrCanceled) etc. keep working.
type QueryError struct {
	// Err is the underlying failure (wraps ErrCanceled or
	// ErrBudgetExceeded).
	Err error
	// Stats is the partial progress of the fixpoint when it stopped.
	Stats datalog.FixpointStats
}

func (e *QueryError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause to errors.Is/errors.As.
func (e *QueryError) Unwrap() error { return e.Err }

// Budget bounds one request. The zero value means unlimited; any subset of
// fields may be set. The *Budget entry points take one per call; the other
// entry points run unbudgeted.
type Budget struct {
	// Deadline bounds the request's wall-clock time from the entry point
	// on: the request's context is given a timeout of this duration there.
	// The admission wait and evaluation observe it — evaluation within one
	// guard interval (~1k candidate rows) or one fixpoint round — and both
	// return ErrCanceled. The sort of the answers is not interrupted, but
	// a deadline that expired during evaluation or the sort still fails
	// the request with ErrCanceled: the context is checked once evaluation
	// returns and again after the sort. Planning does not observe it: AnswerBudget's plan-cache miss
	// (Prepare) takes no context, so the rewriting search, minimisation and
	// compilation run to completion, outside admission control, and a
	// deadline that expires during them is noticed only once evaluation
	// starts. The ROADMAP's direction "Planning under the request's budget"
	// takes the context into planning.
	Deadline time.Duration
	// MaxResultRows bounds the number of answer rows. Exceeding it returns
	// ErrBudgetExceeded.
	MaxResultRows int
	// MaxDerivedTuples bounds the derived-tuple count of inverse-rules
	// fixpoints and update-batch propagation.
	MaxDerivedTuples int
	// MaxFixpointRounds bounds the number of semi-naive rounds of a
	// fixpoint or propagation. A fixpoint counts its rounds across its
	// strata: an inverse-rules program of a conjunctive query takes two.
	MaxFixpointRounds int
}

// limits translates the budget to the executor-level limits.
func (b Budget) limits() datalog.Limits {
	return datalog.Limits{
		MaxRows:    b.MaxResultRows,
		MaxDerived: b.MaxDerivedTuples,
		MaxRounds:  b.MaxFixpointRounds,
	}
}

// apply attaches the budget's deadline to ctx. The second return is the
// cancel function to defer, nil when no deadline applies.
func (b Budget) apply(ctx context.Context) (context.Context, context.CancelFunc) {
	if b.Deadline <= 0 {
		return ctx, nil
	}
	return context.WithTimeout(ctx, b.Deadline)
}

// AdmissionStats counts admission-control outcomes.
type AdmissionStats struct {
	// Admitted counts requests that acquired capacity (immediately or
	// after queueing).
	Admitted uint64
	// Queued counts requests that had to wait for capacity.
	Queued uint64
	// Shed counts requests refused immediately because the wait queue was
	// full.
	Shed uint64
	// TimedOut counts queued requests whose context deadline
	// (Budget.Deadline) expired while waiting.
	TimedOut uint64
	// Canceled counts queued requests whose context was canceled while
	// waiting.
	Canceled uint64
}

// waiter is one request parked in the admission queue.
type waiter struct {
	weight int
	ready  chan struct{} // closed when capacity is granted
}

// admitter is a weighted semaphore with a bounded FIFO wait queue. A nil
// *admitter admits everything for free — the engine only allocates one when
// Options.MaxConcurrent > 0, so ungoverned engines pay a single nil check
// per request.
type admitter struct {
	capacity int
	maxQueue int
	// retryHint estimates time until capacity frees for a shed request,
	// given the current queue length (wired to the engine's average
	// execution time).
	retryHint func(queueLen int) time.Duration

	mu    sync.Mutex
	inUse int
	queue []*waiter
	stats AdmissionStats
}

// acquire blocks until weight units of capacity are granted, the context
// fires, or the bounded queue sheds the request. Weights above capacity are
// clamped so oversized requests (update batches on a capacity-1 engine)
// still run — alone.
func (a *admitter) acquire(ctx context.Context, weight int) error {
	if a == nil {
		return nil
	}
	if weight > a.capacity {
		weight = a.capacity
	}
	a.mu.Lock()
	if len(a.queue) == 0 && a.inUse+weight <= a.capacity {
		a.inUse += weight
		a.stats.Admitted++
		a.mu.Unlock()
		return nil
	}
	if len(a.queue) >= a.maxQueue {
		a.stats.Shed++
		hint := a.retryHint(len(a.queue))
		a.mu.Unlock()
		return &OverloadedError{RetryAfter: hint}
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	a.queue = append(a.queue, w)
	a.stats.Queued++
	a.mu.Unlock()

	select {
	case <-w.ready:
		a.count(&a.stats.Admitted)
		return nil
	case <-ctx.Done():
		if !a.abandon(w) {
			// Lost the race: the grant arrived as the context fired.
			// Return it so the queue keeps draining.
			a.release(w.weight)
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			a.count(&a.stats.TimedOut)
		} else {
			a.count(&a.stats.Canceled)
		}
		return fmt.Errorf("engine: request context fired while queued for admission: %w", ErrCanceled)
	}
}

// abandon removes w from the wait queue, reporting whether it was still
// queued. False means the grant already happened and the caller owns it.
func (a *admitter) abandon(w *waiter) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, q := range a.queue {
		if q == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return true
		}
	}
	return false
}

// release returns weight units of capacity and grants FIFO waiters that now
// fit.
func (a *admitter) release(weight int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.inUse -= weight
	for len(a.queue) > 0 {
		w := a.queue[0]
		if a.inUse+w.weight > a.capacity {
			break
		}
		a.queue = a.queue[1:]
		a.inUse += w.weight
		close(w.ready)
	}
	a.mu.Unlock()
}

// count bumps one stats counter under the mutex.
func (a *admitter) count(c *uint64) {
	a.mu.Lock()
	*c++
	a.mu.Unlock()
}

// snapshot copies the outcome counters.
func (a *admitter) snapshot() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// newAdmitter builds the engine's admission controller, or nil when
// Options.MaxConcurrent leaves admission disabled.
func newAdmitter(opt Options, retryHint func(int) time.Duration) *admitter {
	if opt.MaxConcurrent <= 0 {
		return nil
	}
	maxQueue := opt.MaxQueue
	if maxQueue == 0 {
		maxQueue = 4 * opt.MaxConcurrent
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admitter{
		capacity:  opt.MaxConcurrent,
		maxQueue:  maxQueue,
		retryHint: retryHint,
	}
}

// MinRetryAfter floors every OverloadedError.RetryAfter hint. A cold or
// fast engine observes sub-millisecond average execution times, and a hint
// in the microsecond range tells clients to hammer an engine that just shed
// them — and truncates to Retry-After: 0 once mapped onto HTTP integer
// seconds, a retry-storm invitation. Shedding only happens when the wait
// queue is already full, so the earliest useful retry is never sooner than
// a sizeable fraction of the queue drain time.
const MinRetryAfter = 50 * time.Millisecond

// retryHint estimates when a shed request should retry: the engine's
// average execution time (floored at 1ms so a cold engine still hints
// something) times the number of requests ahead of it, never below
// MinRetryAfter.
func (e *Engine) retryHint(queueLen int) time.Duration {
	avg := time.Millisecond
	if n := e.execCount.Load(); n > 0 {
		if a := time.Duration(e.execTime.Load() / int64(n)); a > avg {
			avg = a
		}
	}
	hint := avg * time.Duration(queueLen+1)
	if hint < MinRetryAfter {
		hint = MinRetryAfter
	}
	return hint
}

// Stable machine-readable error codes for the serving boundary. Error
// strings are for humans; network clients need to distinguish a budget trip
// from a cancel without string matching, so every typed engine error maps
// onto one of these. The set only grows — codes are wire contract.
const (
	// CodeOverloaded: admission control shed the request (ErrOverloaded).
	CodeOverloaded = "overloaded"
	// CodeBudgetExceeded: the request exhausted an explicit resource
	// budget (ErrBudgetExceeded).
	CodeBudgetExceeded = "budget_exceeded"
	// CodeCanceled: the request's context was canceled or its deadline
	// expired mid-evaluation (ErrCanceled).
	CodeCanceled = "canceled"
	// CodeInternal: an evaluation panicked and was converted to an error at
	// the engine boundary (ErrInternal).
	CodeInternal = "internal"
	// CodeArityMismatch: wrong Exec argument count or a tuple of the wrong
	// width (ErrArityMismatch, storage.ArityError).
	CodeArityMismatch = "arity_mismatch"
	// CodeNotLive: a mutation on an engine built without
	// Options.LiveUpdates (ErrNotLive).
	CodeNotLive = "not_live"
	// CodeDurability: a durable-storage write failed and the engine is
	// fail-stopped for mutations (ErrDurability).
	CodeDurability = "durability"
)

// ErrorCode maps a typed engine error to its stable machine-readable code,
// or "" when the error is nil or carries no engine type (callers pick their
// own code for those — a parse error, say). Wrapping is respected: a
// QueryError around ErrBudgetExceeded reports CodeBudgetExceeded, and a
// bare context cancellation maps to CodeCanceled like the typed form.
func ErrorCode(err error) string {
	var arity *storage.ArityError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrBudgetExceeded):
		return CodeBudgetExceeded
	case errors.Is(err, ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	case errors.Is(err, ErrArityMismatch), errors.As(err, &arity):
		return CodeArityMismatch
	case errors.Is(err, ErrNotLive):
		return CodeNotLive
	case errors.Is(err, ErrDurability):
		return CodeDurability
	case errors.Is(err, ErrInternal):
		return CodeInternal
	default:
		return ""
	}
}

// recoverInternal converts a panic escaping an execution path into a typed
// *InternalError, counting it. Deferred at every public entry point that
// evaluates plans or applies batches.
func (e *Engine) recoverInternal(err *error) {
	if r := recover(); r != nil {
		e.panics.Add(1)
		*err = &InternalError{Value: r, Stack: debug.Stack()}
	}
}

// ---- Context- and budget-aware entry points ----

// AnswerCtx is Answer under a context: evaluation observes cancellation
// within one guard interval and returns ErrCanceled. It runs unbudgeted.
func (e *Engine) AnswerCtx(ctx context.Context, q *cq.Query) ([]storage.Tuple, error) {
	return copyRows(e.AnswerBudget(ctx, q, Budget{}))
}

// AnswerBudget is Answer under a context and a per-call budget. The
// deadline starts before planning. The answers come in the executor's
// pooled row set, sorted: read them with Len and Row (or copy them out
// with Rows), then Release the set, after which no row read from it may be
// used. On error the set is nil.
func (e *Engine) AnswerBudget(ctx context.Context, q *cq.Query, b Budget) (*datalog.RowSet, error) {
	ctx, cancel := b.apply(ctx)
	if cancel != nil {
		defer cancel()
	}
	pq, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return e.execBudget(ctx, pq.plan, pq.args, b.limits())
}

// ExecCtx is Exec under a context. It runs unbudgeted.
func (pq *PreparedQuery) ExecCtx(ctx context.Context, args ...string) ([]storage.Tuple, error) {
	return copyRows(pq.ExecBudget(ctx, Budget{}, args...))
}

// ExecBudget is Exec under a context and a per-call budget. Like
// AnswerBudget it returns the sorted answers in a pooled row set, which
// the caller releases once it has read them; on error the set is nil.
func (pq *PreparedQuery) ExecBudget(ctx context.Context, b Budget, args ...string) (*datalog.RowSet, error) {
	if len(args) != len(pq.plan.Params) {
		return nil, fmt.Errorf("engine: prepared query takes %d argument(s), got %d: %w",
			len(pq.plan.Params), len(args), ErrArityMismatch)
	}
	ctx, cancel := b.apply(ctx)
	if cancel != nil {
		defer cancel()
	}
	return pq.eng.execBudget(ctx, pq.plan, args, b.limits())
}

// copyRows copies a returned set's rows out, in two allocations, and
// releases the set: the answers of the entry points that return tuples.
func copyRows(set *datalog.RowSet, err error) ([]storage.Tuple, error) {
	if err != nil {
		return nil, err
	}
	rows := set.Rows()
	set.Release()
	return rows, nil
}

// execBudget is the single execution path every query entry point funnels
// through: panic isolation, admission, snapshot pin, limit-guarded
// evaluation into a pooled row set, the sort, counters. The entry point
// has already attached the budget's deadline to ctx, so it bounds the
// admission wait too. With a background context, zero limits and
// admission disabled it reduces to the ungoverned fast path — nil guards
// all the way down. The set is returned only on success; a failed or
// panicking evaluation's set is released or left to the collector, never
// handed out.
func (e *Engine) execBudget(ctx context.Context, p *Plan, args []string, lim datalog.Limits) (answers *datalog.RowSet, err error) {
	defer e.recoverInternal(&err)
	if err := e.admit.acquire(ctx, 1); err != nil {
		return nil, err
	}
	defer e.admit.release(1)
	start := time.Now()
	db, pinned := e.snapshot()
	if pinned != nil {
		defer pinned.RUnlock()
	}
	set := datalog.AcquireRowSet()
	if err := e.evalPlanCtx(ctx, db, p, args, lim, set); err != nil {
		set.Release()
		return nil, err
	}
	// The sort is not interrupted, so the context is checked before and
	// after it: a request answers only within its deadline.
	if ctx.Err() == nil {
		set.Sort()
	}
	if ctx.Err() != nil {
		set.Release()
		return nil, ErrCanceled
	}
	e.execCount.Add(1)
	e.execTime.Add(int64(time.Since(start)))
	return set, nil
}

// ApplyUpdateCtx is ApplyUpdate under a context: the propagation observes
// cancellation within one guard interval or round barrier, and a canceled
// or budget-tripped batch — even one caught mid-retraction — is atomic: the
// maintainer rolls back the inactive serving side it was maintaining in
// place before any reader can see it, so the engine keeps answering from
// the exact pre-batch state and the batch can simply be retried. It runs
// unbudgeted.
func (e *Engine) ApplyUpdateCtx(ctx context.Context, inserts, deletes map[string][]storage.Tuple) error {
	return e.ApplyUpdateBudget(ctx, inserts, deletes, Budget{})
}

// ApplyUpdateBudget is ApplyUpdate under a context and a per-call budget
// (deadline, MaxDerivedTuples, MaxFixpointRounds; MaxResultRows does not
// apply to updates) — the execution path every mutation
// funnels through: panic isolation, deadline attachment, admission (updates
// weigh 2), the maintainer's atomic propagation onto the inactive serving
// side, the WAL append, the flip, and the replay onto the other side. Once
// a batch could not be logged or replayed, every later call is refused
// with that error (ErrDurability or ErrInternal) while reads keep serving.
func (e *Engine) ApplyUpdateBudget(ctx context.Context, inserts, deletes map[string][]storage.Tuple, b Budget) (err error) {
	if e.live == nil {
		return ErrNotLive
	}
	defer e.recoverInternal(&err)
	ctx, cancel := b.apply(ctx)
	if cancel != nil {
		defer cancel()
	}
	if err := e.admit.acquire(ctx, 2); err != nil {
		return err
	}
	defer e.admit.release(2)
	l := e.live
	l.updateMu.Lock()
	defer l.updateMu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if e.dur != nil {
		if derr := e.dur.store.Err(); derr != nil {
			// Fail-stop: an earlier WAL write failed; accepting this batch
			// would let the served state outrun the recoverable one.
			return fmt.Errorf("%w: %v", ErrDurability, derr)
		}
	}
	start := time.Now()
	active := l.active.Load()
	res, err := e.commit(ctx, 1-active, inserts, deletes, b.limits())
	if err != nil {
		return err
	}
	// The batch is logged and served. Replaying it onto the formerly active
	// side is not a cancellation point; a failed replay wedges mutations.
	if err := l.applySide(active, res.Journal); err != nil {
		return err
	}
	if e.dur != nil {
		e.dur.maybeCheckpoint(e)
	}
	baseNew, baseGone := 0, 0
	for _, tuples := range res.BaseInserted {
		baseNew += len(tuples)
	}
	for _, tuples := range res.BaseDeleted {
		baseGone += len(tuples)
	}
	e.updBatches.Add(1)
	e.updTuples.Add(uint64(baseNew))
	e.updDeleted.Add(uint64(baseGone))
	e.updDerived.Add(uint64(res.Stats.Derived))
	e.updRetracted.Add(uint64(res.NetRetracted))
	e.maintainTime.Add(int64(time.Since(start)))
	return nil
}

// commit maintains serving side i — the inactive one — in place and makes
// it active. Under the side's write lock, held throughout, the maintainer's
// database is bound to the side's relations, the maintainer applies the
// batch (datalog.ApplyUpdatesCtx journals it and rolls it back on any error or
// panic, leaving the side untouched), the batch is fsynced to the WAL, and
// the side is flipped active. A batch is therefore logged before any
// reader sees it, and a canceled or budget-tripped batch is never logged.
// If the append fails, the batch's journal rolls the maintained database —
// the side and the maintainer's private relations — back before the lock
// is released, and mutations are wedged: the log that refused the batch
// cannot be trusted with the next. Called under updateMu.
func (e *Engine) commit(ctx context.Context, i int32, inserts, deletes map[string][]storage.Tuple, lim datalog.Limits) (*ivm.BatchResult, error) {
	l := e.live
	side, db := l.sides[i], l.maint.Database()
	l.locks[i].Lock()
	defer l.locks[i].Unlock()
	db.Bind(side)
	res, err := l.maint.ApplyUpdateCtx(ctx, inserts, deletes, lim)
	if err != nil {
		return nil, err
	}
	if e.dur != nil {
		if err := e.dur.logBatch(res); err != nil {
			res.Journal.Rollback()
			l.failed = err
			return nil, err
		}
	}
	if l.servesBase {
		// A base relation the batch created lands on the side it was
		// written for, frozen like every served relation.
		for pred := range res.BaseInserted {
			if rel := db.Relation(pred); !rel.Frozen() {
				rel.BuildIndexes()
			}
		}
		side.Bind(db)
	}
	l.active.Store(i)
	return res, nil
}

// evalPlanCtx is evalPlan under a context and limits, adding the answers
// to into: the compiled executors run with amortized cancellation guards,
// budget trips surface as typed errors, and fixpoint failures carry their
// partial-progress stats in a QueryError. With a never-firing context and
// zero limits the guards are nil and the evaluation is bit-for-bit the
// ungoverned one. On error into holds partial rows.
func (e *Engine) evalPlanCtx(ctx context.Context, db *storage.Database, p *Plan, args []string, lim datalog.Limits, into *datalog.RowSet) error {
	switch p.Kind {
	case PlanEquivalent:
		return p.Compiled.EvalIntoCtx(ctx, db, args, lim, into)
	case PlanMaxContained:
		// Every member adds into the one set, deduplicating against the
		// members before it.
		for _, cp := range p.CompiledUnion {
			if err := cp.EvalIntoCtx(ctx, db, args, lim, into); err != nil {
				return err
			}
			// Per-member guards bound each member; the union can still
			// exceed the row budget across members, so re-check exactly.
			if lim.MaxRows > 0 && into.Len() > lim.MaxRows {
				return fmt.Errorf("engine: union result has %d row(s), budget is %d: %w",
					into.Len(), lim.MaxRows, ErrBudgetExceeded)
			}
		}
		return nil
	case PlanInverseProgram:
		derived, fst, err := p.CompiledProgram.EvalRelationCtx(ctx, db, p.AnswerPred, lim)
		e.fixpointRuns.Add(1)
		e.fixpointIters.Add(uint64(fst.Iterations))
		e.fixpointDrvd.Add(uint64(fst.Derived))
		if err != nil {
			return &QueryError{Err: err, Stats: fst}
		}
		// A parameterized program derives the answer relation with the
		// placeholder columns appended to the head: select the rows
		// matching the binding and project them away. The certain answers
		// are the rows free of Skolem values.
		for _, t := range selectParams(derived, p.Arity, args) {
			if !datalog.HasSkolem(t) {
				into.Add(t)
			}
		}
		// The fixpoint guard bounds derivations, not final answers: the
		// result-row budget applies after selection and minimization.
		if lim.MaxRows > 0 && into.Len() > lim.MaxRows {
			return fmt.Errorf("engine: result has %d row(s), budget is %d: %w",
				into.Len(), lim.MaxRows, ErrBudgetExceeded)
		}
		return nil
	default:
		return fmt.Errorf("engine: unknown plan kind %d", p.Kind)
	}
}
