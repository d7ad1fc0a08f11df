package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/storage"
)

// crossBase builds two unary relations whose product has n*n answers —
// enough work for a short deadline to land mid-evaluation — plus identity
// views so every strategy can rewrite over it.
func crossBase(t testing.TB, n int) (*storage.Database, []*cq.Query) {
	t.Helper()
	base := storage.NewDatabase()
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("x%d", i)
		base.Insert("r", storage.Tuple{v})
		base.Insert("s", storage.Tuple{v})
	}
	views, err := cq.ParseViews(`
		vr(A) :- r(A).
		vs(A) :- s(A).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return base, views
}

// TestAnswerBudgetDeadline is the acceptance scenario: a short deadline on
// an expensive inverse-rules query comes back ErrCanceled in bounded time
// with partial fixpoint stats, and the engine stays fully serviceable.
func TestAnswerBudgetDeadline(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 200
	}
	base, views := crossBase(t, n)
	e, err := NewFromBase(base, views, Options{Strategy: InverseRules})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X), s(Y)")
	start := time.Now()
	_, err = e.AnswerBudget(context.Background(), q, Budget{Deadline: 3 * time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("machine answered the n*n query inside the deadline")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline observed only after %v", elapsed)
	}
	// The fixpoint error carries partial-progress stats.
	var qe *QueryError
	if errors.As(err, &qe) {
		t.Logf("partial stats: %d iterations, %d derived", qe.Stats.Iterations, qe.Stats.Derived)
	}
	// Serviceable after: the same query without a deadline completes.
	got, err := e.Answer(q)
	if err != nil {
		t.Fatalf("engine not serviceable after canceled query: %v", err)
	}
	if len(got) != n*n {
		t.Fatalf("post-cancel answer has %d rows, want %d", len(got), n*n)
	}
}

func TestAnswerBudgetMaxResultRows(t *testing.T) {
	base, views := testBase(t)
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	for _, strat := range []Strategy{EquivalentFirst, MiniCon, InverseRules} {
		e, err := NewFromBase(base, views, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		// The query has 2 answers; a 1-row budget trips, a 2-row one passes.
		_, err = e.AnswerBudget(context.Background(), q, Budget{MaxResultRows: 1})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want ErrBudgetExceeded", strat, err)
		}
		got, err := e.AnswerBudget(context.Background(), q, Budget{MaxResultRows: 2})
		if err != nil {
			t.Fatalf("%s: exact-budget query failed: %v", strat, err)
		}
		if len(got) != 2 {
			t.Fatalf("%s: rows = %d, want 2", strat, len(got))
		}
	}
}

func TestAnswerBudgetMaxFixpointRounds(t *testing.T) {
	base, views := pointBase(t, 50)
	e, err := NewFromBase(base, views, Options{Strategy: InverseRules})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	_, err = e.AnswerBudget(context.Background(), q, Budget{MaxFixpointRounds: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("fixpoint budget error is %T, want *QueryError", err)
	}
	if qe.Stats.Iterations != 1 {
		t.Fatalf("partial stats Iterations = %d, want 1", qe.Stats.Iterations)
	}
	// A budget is per call: the same query without one, or through the
	// entry points that take none, runs to its fixpoint.
	if _, err := e.AnswerBudget(context.Background(), q, Budget{}); err != nil {
		t.Fatalf("unbudgeted AnswerBudget: %v", err)
	}
	if _, err := e.Answer(q); err != nil {
		t.Fatalf("Answer: %v", err)
	}
}

func TestExecTypedArityError(t *testing.T) {
	base, views := pointBase(t, 50)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Prepare(cq.MustParseQuery("q(Y) :- r(k3,Z), s(Z,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Exec(); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("missing-arg err = %v, want ErrArityMismatch", err)
	}
	if _, err := pq.Exec("a", "b"); !errors.Is(err, ErrArityMismatch) {
		t.Fatalf("surplus-arg err = %v, want ErrArityMismatch", err)
	}
}

// TestPanicIsolation hand-crafts an inconsistent plan — a compiled form
// expecting one parameter but a Params list claiming none — so evaluation
// panics below the API boundary. The boundary must convert it to
// ErrInternal, count it, and leave the engine serviceable.
func TestPanicIsolation(t *testing.T) {
	base, views := pointBase(t, 50)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := e.Prepare(cq.MustParseQuery("q(Y) :- r(k3,Z), s(Z,Y)"))
	if err != nil {
		t.Fatal(err)
	}
	plan := *pq.plan
	plan.Params = nil // lie about the arity: Exec admits no argument, evaluation panics
	bad := *pq
	bad.plan = &plan
	_, err = bad.Exec()
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err is %T, want *InternalError", err)
	}
	if ie.Value == nil || len(ie.Stack) == 0 {
		t.Fatalf("InternalError missing payload: %+v", ie)
	}
	if got := e.Stats().Panics; got != 1 {
		t.Fatalf("Stats().Panics = %d, want 1", got)
	}
	// The engine keeps serving healthy plans.
	if _, err := pq.Exec("k3"); err != nil {
		t.Fatalf("engine not serviceable after recovered panic: %v", err)
	}
}

func testAdmitter(capacity, maxQueue int, timeout time.Duration) *admitter {
	return &admitter{
		capacity:     capacity,
		maxQueue:     maxQueue,
		queueTimeout: timeout,
		retryHint:    func(queueLen int) time.Duration { return time.Duration(queueLen+1) * time.Millisecond },
	}
}

func TestAdmitterImmediateAndShed(t *testing.T) {
	a := testAdmitter(1, 0, 0)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Capacity is gone and the queue holds zero: shed immediately.
	err := a.acquire(context.Background(), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("shed error carries no retry hint: %v", err)
	}
	a.release(1)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	st := a.snapshot()
	if st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 2 admitted / 1 shed", st)
	}
}

func TestAdmitterQueueDrainsFIFO(t *testing.T) {
	a := testAdmitter(1, 4, 0)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	ready := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Park in the queue in index order.
			for {
				a.mu.Lock()
				pos := len(a.queue)
				a.mu.Unlock()
				if pos == i {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			ready <- struct{}{}
			if err := a.acquire(context.Background(), 1); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.release(1)
		}(i)
	}
	// Wait until all three have committed to enqueueing, then let the
	// queue drain by releasing the held unit.
	for i := 0; i < 3; i++ {
		<-ready
	}
	for {
		a.mu.Lock()
		q := len(a.queue)
		a.mu.Unlock()
		if q == 3 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	a.release(1)
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want [0 1 2]", order)
	}
	st := a.snapshot()
	if st.Queued != 3 || st.Admitted != 4 {
		t.Fatalf("stats = %+v, want 3 queued / 4 admitted", st)
	}
}

func TestAdmitterQueueTimeout(t *testing.T) {
	a := testAdmitter(1, 4, 5*time.Millisecond)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	err := a.acquire(context.Background(), 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded after queue timeout", err)
	}
	if st := a.snapshot(); st.TimedOut != 1 {
		t.Fatalf("stats = %+v, want 1 timed out", st)
	}
	// The timed-out waiter left the queue; capacity still drains cleanly.
	a.release(1)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitterCancelWhileQueued(t *testing.T) {
	a := testAdmitter(1, 4, 0)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx, 1) }()
	for {
		a.mu.Lock()
		q := len(a.queue)
		a.mu.Unlock()
		if q == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if st := a.snapshot(); st.Canceled != 1 {
		t.Fatalf("stats = %+v, want 1 canceled", st)
	}
	a.release(1)
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestAdmitterWeightClamped(t *testing.T) {
	a := testAdmitter(1, 0, 0)
	// An update batch weighs 2 but must still run on a capacity-1 engine.
	if err := a.acquire(context.Background(), 2); err != nil {
		t.Fatalf("oversized acquire: %v", err)
	}
	a.release(1) // clamped weight
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatalf("capacity corrupted by clamped weight: %v", err)
	}
}

// TestEngineShedsWhenSaturated drives the engine-level path: with
// MaxConcurrent 1 and no queue, a query issued while capacity is held is
// shed with a typed retry-after error and counted in Stats.
func TestEngineShedsWhenSaturated(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	if err := e.admit.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	_, err = e.Answer(q)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("no retry hint: %v", err)
	}
	e.admit.release(1)
	if _, err := e.Answer(q); err != nil {
		t.Fatalf("post-release query failed: %v", err)
	}
	st := e.Stats()
	if st.Admission.Shed != 1 || st.Admission.Admitted != 2 {
		t.Fatalf("Admission = %+v, want 1 shed / 2 admitted", st.Admission)
	}
}

// TestBudgetDeadlineCoversAdmission: a request queued behind a held slot
// gives up when its own budget deadline fires — ErrCanceled, counted as
// timed out — instead of waiting for the slot and then answering. The
// slot frees itself after holdFor, so an entry point that starts the clock
// only after admission returns an answer late instead of hanging.
func TestBudgetDeadlineCoversAdmission(t *testing.T) {
	const deadline, holdFor = 20 * time.Millisecond, 500 * time.Millisecond
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{LiveUpdates: true, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	pq, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b := Budget{Deadline: deadline}
	calls := []struct {
		name string
		run  func() error
	}{
		{"AnswerBudget", func() error { _, err := e.AnswerBudget(context.Background(), q, b); return err }},
		{"ExecBudget", func() error { _, err := pq.ExecBudget(context.Background(), b, pq.Args()...); return err }},
		{"ApplyUpdateBudget", func() error {
			return e.ApplyUpdateBudget(context.Background(), map[string][]storage.Tuple{"r": {{"c", "m"}}}, nil, b)
		}},
	}
	for i, c := range calls {
		if err := e.admit.acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		released := make(chan struct{})
		hold := time.AfterFunc(holdFor, func() { e.admit.release(1); close(released) })
		start := time.Now()
		err := c.run()
		elapsed := time.Since(start)
		if hold.Stop() {
			e.admit.release(1)
		} else {
			<-released
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v after %v, want ErrCanceled", c.name, err, elapsed)
		}
		if elapsed >= holdFor/2 {
			t.Fatalf("%s: gave up after %v, deadline %v", c.name, elapsed, deadline)
		}
		if got := e.Stats().Admission.TimedOut; got != uint64(i+1) {
			t.Fatalf("%s: Admission.TimedOut = %d, want %d", c.name, got, i+1)
		}
	}
}

// TestApplyBatchCtxAtomicOnLiveEngine: a canceled batch leaves both serving
// sides exactly as they were — answers unchanged — and the batch retries
// cleanly.
func TestApplyBatchCtxAtomicOnLiveEngine(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{LiveUpdates: true})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	before, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	batch := map[string][]storage.Tuple{
		"r": {{"c", "n"}},
		"s": {{"n", "zz"}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.ApplyUpdateCtx(ctx, batch, nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	mid, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(mid, before) {
		t.Fatalf("canceled batch changed answers: %v -> %v", before, mid)
	}
	// Retry applies; the new join rows appear.
	if err := e.ApplyUpdate(batch, nil); err != nil {
		t.Fatalf("retry: %v", err)
	}
	after, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	// r(c,n)⋈{s(n,y), s(n,zz)} plus the existing r(b,n)⋈s(n,zz).
	if len(after) != len(before)+3 {
		t.Fatalf("post-retry answers = %v", after)
	}
}

// TestCancelUnderConcurrentReaders runs 4-worker evaluations and
// repeatedly canceled update batches at the same time (run with -race):
// readers must never see a torn snapshot — every answer equals the
// pre-batch or post-batch result — and no goroutines may leak.
func TestCancelUnderConcurrentReaders(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{LiveUpdates: true, EvalWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	shadow := base.Clone()
	baseline := runtime.NumGoroutine()

	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := e.AnswerCtx(context.Background(), q)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				// The base answers never disappear; batches only add.
				if len(rows) < 2 {
					t.Errorf("torn snapshot: %d rows", len(rows))
					return
				}
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		batch := map[string][]storage.Tuple{
			"r": {{fmt.Sprintf("w%d", i), "m"}},
		}
		// Odd rounds: pre-canceled, must be a no-op. Even rounds: apply.
		if i%2 == 1 {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := e.ApplyUpdateCtx(ctx, batch, nil); !errors.Is(err, ErrCanceled) {
				t.Fatalf("round %d: err = %v", i, err)
			}
			continue
		}
		if err := e.ApplyUpdate(batch, nil); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		for pred, tuples := range batch {
			for _, tup := range tuples {
				shadow.Insert(pred, tup)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Mid-eval cancellation with the same engine: a deadline on a
	// 4-worker evaluation must not strand worker goroutines.
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
		_, _ = e.AnswerCtx(ctx, q)
		cancel()
	}

	// Goroutine-leak check: give workers a moment to unwind, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Final state must match a full re-materialization from the base plus
	// only the batches that were allowed to apply.
	fresh, err := NewFromBase(shadow, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !storage.TuplesEqual(got, want) {
		t.Fatalf("live answers diverge from rebuilt engine: %v vs %v", got, want)
	}
}
