package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmitterAcquireRaceStress hammers admitter.acquire's race — capacity
// grant vs context-fire, by cancel or by deadline — with hundreds of
// concurrent acquires and randomized cancels, under -race. Invariants:
//
//   - inUse never exceeds capacity and never goes negative, at any sampled
//     moment and at the end (drains to exactly 0);
//   - every attempt lands in exactly one outcome bucket (admitted, shed,
//     timed out, canceled), so the counters sum to the attempt count;
//   - the abandon-lost-race release path keeps the FIFO queue draining: a
//     fresh acquire after the storm is granted immediately.
func TestAdmitterAcquireRaceStress(t *testing.T) {
	const (
		capacity = 8
		workers  = 24
		perG     = 25 // 600 acquires total
	)
	a := &admitter{
		capacity:  capacity,
		maxQueue:  12,
		retryHint: func(queueLen int) time.Duration { return time.Millisecond },
	}

	// Invariant poller: samples inUse while the storm runs.
	stop := make(chan struct{})
	var pollerWG sync.WaitGroup
	pollerWG.Add(1)
	go func() {
		defer pollerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.mu.Lock()
			inUse, queued := a.inUse, len(a.queue)
			a.mu.Unlock()
			if inUse < 0 || inUse > capacity {
				panic("admitter inUse out of range") // t.Fatal is not goroutine-safe
			}
			if queued > a.maxQueue {
				panic("admitter queue over bound")
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	var admitted, refused atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				switch rng.Intn(4) {
				case 0: // pre-canceled: the context already fired
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case 1: // deadline fires mid-wait, racing the grant
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(700))*time.Microsecond)
				case 2: // fires late
					ctx, cancel = context.WithTimeout(ctx, 5*time.Millisecond)
				default: // never fires
				}
				weight := 1 + rng.Intn(2)
				err := a.acquire(ctx, weight)
				if err == nil {
					admitted.Add(1)
					a.mu.Lock()
					inUse := a.inUse
					a.mu.Unlock()
					if inUse < 1 || inUse > capacity {
						panic("admitter inUse out of range after grant")
					}
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(150)) * time.Microsecond)
					}
					a.release(weight)
				} else {
					if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrCanceled) {
						panic("unexpected acquire error: " + err.Error())
					}
					refused.Add(1)
				}
				if cancel != nil {
					cancel()
				}
			}
		}(int64(g) * 7919)
	}
	wg.Wait()
	close(stop)
	pollerWG.Wait()

	a.mu.Lock()
	inUse, queued, st := a.inUse, len(a.queue), a.stats
	a.mu.Unlock()
	if inUse != 0 {
		t.Fatalf("inUse = %d after drain, want 0", inUse)
	}
	if queued != 0 {
		t.Fatalf("queue holds %d waiters after drain, want 0", queued)
	}
	attempts := uint64(workers * perG)
	if got := st.Admitted + st.Shed + st.TimedOut + st.Canceled; got != attempts {
		t.Fatalf("outcome counters sum to %d (%+v), want %d — an attempt was double- or un-counted", got, st, attempts)
	}
	if st.Admitted != admitted.Load() {
		t.Fatalf("stats.Admitted = %d, callers saw %d grants", st.Admitted, admitted.Load())
	}
	if st.Shed+st.TimedOut+st.Canceled != refused.Load() {
		t.Fatalf("stats refusals = %d, callers saw %d", st.Shed+st.TimedOut+st.Canceled, refused.Load())
	}

	// The queue must still drain: a fresh request is granted immediately.
	granted := make(chan error, 1)
	go func() { granted <- a.acquire(context.Background(), 1) }()
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("post-storm acquire failed: %v", err)
		}
		a.release(1)
	case <-time.After(time.Second):
		t.Fatal("post-storm acquire blocked: the queue stopped draining")
	}
}

// TestAdmitterLostRaceRelease targets the abandon-lost-race path directly:
// a waiter whose context fires at the same moment the grant arrives must
// return the capacity so later waiters are not starved.
func TestAdmitterLostRaceRelease(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		a := &admitter{
			capacity:  1,
			maxQueue:  4,
			retryHint: func(int) time.Duration { return time.Millisecond },
		}
		if err := a.acquire(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- a.acquire(ctx, 1) }()
		// Wait for the waiter to queue, then race the grant and the cancel.
		for {
			a.mu.Lock()
			n := len(a.queue)
			a.mu.Unlock()
			if n == 1 {
				break
			}
			time.Sleep(10 * time.Microsecond)
		}
		go a.release(1)
		go cancel()
		if err := <-errc; err == nil {
			a.release(1)
		}
		// Whatever the race outcome, all capacity must be back.
		deadline := time.Now().Add(time.Second)
		for {
			a.mu.Lock()
			inUse, queued := a.inUse, len(a.queue)
			a.mu.Unlock()
			if inUse == 0 && queued == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("trial %d: capacity leaked: inUse=%d queued=%d", trial, inUse, queued)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
}
