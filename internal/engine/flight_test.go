package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cq"
)

// TestPlanPanicRetiresFlight: a panic while a plan is being built must not
// leave the template's flight registered. Before PR 18 planning ran outside
// recoverInternal: the panic escaped, e.inflight[fp] stayed with done never
// closed, and every later request for the template blocked forever.
func TestPlanPanicRetiresFlight(t *testing.T) {
	base, views := testBase(t)
	e, err := NewFromBase(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	fp := e.template(q).Fingerprint()

	// The builder holds its flight open until a second caller has coalesced
	// onto it, then panics.
	release := make(chan struct{})
	builder, waiter := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := e.cachedPlan(fp, func() (*Plan, error) {
			<-release
			panic("planner bug")
		})
		builder <- err
	}()
	waitFor(t, e, func() bool { return len(e.inflight) == 1 })
	go func() {
		_, err := e.cachedPlan(fp, func() (*Plan, error) {
			t.Error("the waiter must share the builder's flight, not build")
			return nil, nil
		})
		waiter <- err
	}()
	waitFor(t, e, func() bool { return e.coalesced == 1 })
	close(release)

	for name, ch := range map[string]chan error{"builder": builder, "waiter": waiter} {
		select {
		case err := <-ch:
			var internal *InternalError
			if !errors.As(err, &internal) || internal.Value != "planner bug" {
				t.Errorf("%s: err = %v, want the InternalError carrying the panic value", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never returned: the flight was not retired", name)
		}
	}
	if st := e.Stats(); st.Panics != 1 {
		t.Errorf("Stats.Panics = %d, want 1", st.Panics)
	}
	waitFor(t, e, func() bool { return len(e.inflight) == 0 })

	// The template is not poisoned: the next request plans it.
	done := make(chan error, 1)
	go func() {
		pq, err := e.Prepare(q)
		if err == nil && pq.Plan() == nil {
			err = errors.New("no plan")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Prepare after the panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Prepare after the panic blocked")
	}
}

// waitFor polls cond, evaluated under the engine mutex, until it holds.
func waitFor(t *testing.T, e *Engine, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		e.mu.Lock()
		ok := cond()
		e.mu.Unlock()
		if ok {
			return
		}
	}
	t.Fatal("condition never held")
}
