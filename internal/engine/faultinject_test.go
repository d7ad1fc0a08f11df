package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/storage"
)

// TestFaultInjectionDifferential is the randomized cancel-point acceptance
// test: hundreds of trials inject cancellations and budget trips at random
// points across the evaluation, fixpoint and IVM paths of a live engine,
// and after every injected fault each query answer must match a full
// re-materialization from the base plus only the batches that committed.
// A single leaked tuple from a rolled-back batch, or a torn serving pair,
// diverges the fingerprint immediately.
func TestFaultInjectionDifferential(t *testing.T) {
	trials := 220
	if testing.Short() {
		trials = 50
	}
	rng := rand.New(rand.NewSource(0xC0FFEE))
	strategies := Strategies()
	q := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")

	for trial := 0; trial < trials; trial++ {
		base, views := testBase(t)
		// Pad the base with random extra facts so propagation has work.
		for i := 0; i < rng.Intn(20); i++ {
			base.Insert("r", storage.Tuple{fmt.Sprintf("a%d", rng.Intn(8)), fmt.Sprintf("m%d", rng.Intn(8))})
			base.Insert("s", storage.Tuple{fmt.Sprintf("m%d", rng.Intn(8)), fmt.Sprintf("x%d", rng.Intn(8))})
		}
		strat := strategies[trial%len(strategies)]
		live, err := NewFromBase(base, views, Options{
			Strategy:    strat,
			LiveUpdates: true,
			EvalWorkers: 1 + rng.Intn(3),
		})
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, strat, err)
		}
		shadow := base.Clone()

		for batch := 0; batch < 1+rng.Intn(3); batch++ {
			upd := make(map[string][]storage.Tuple)
			for i := 0; i < 1+rng.Intn(4); i++ {
				if rng.Intn(2) == 0 {
					upd["r"] = append(upd["r"], storage.Tuple{fmt.Sprintf("a%d", rng.Intn(10)), fmt.Sprintf("m%d", rng.Intn(10))})
				} else {
					upd["s"] = append(upd["s"], storage.Tuple{fmt.Sprintf("m%d", rng.Intn(10)), fmt.Sprintf("x%d", rng.Intn(10))})
				}
			}

			// Pick a fault to inject into the IVM path: a pre-fired or
			// racing deadline, a tiny derivation/round budget, or none.
			ctx := context.Background()
			var cancel context.CancelFunc
			var b Budget
			switch rng.Intn(4) {
			case 0: // pre-canceled context
				ctx, cancel = context.WithCancel(ctx)
				cancel()
			case 1: // racing deadline, sometimes already expired
				b.Deadline = time.Duration(rng.Intn(300)) * time.Microsecond
			case 2: // derivation or round budget likely to trip
				if rng.Intn(2) == 0 {
					b.MaxDerivedTuples = 1 + rng.Intn(2)
				} else {
					b.MaxFixpointRounds = 1
				}
			case 3: // no fault — the batch commits
			}
			err := live.ApplyUpdateBudget(ctx, upd, nil, b)
			if cancel != nil {
				cancel()
			}
			switch {
			case err == nil:
				// Committed: fold into the shadow base.
				for pred, tuples := range upd {
					for _, tup := range tuples {
						shadow.Insert(pred, tup)
					}
				}
			case errors.Is(err, ErrCanceled), errors.Is(err, ErrBudgetExceeded):
				// Rolled back: the shadow stays as-is.
			default:
				t.Fatalf("trial %d (%s) batch %d: unexpected error type: %v", trial, strat, batch, err)
			}

			// Differential check, itself sometimes under an injected fault
			// on the query path.
			want, err := NewFromBase(shadow, views, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("trial %d (%s): rebuild: %v", trial, strat, err)
			}
			wantRows, err := want.Answer(q)
			if err != nil {
				t.Fatalf("trial %d (%s): rebuilt answer: %v", trial, strat, err)
			}
			var qb Budget
			if rng.Intn(3) == 0 {
				qb.Deadline = time.Duration(rng.Intn(200)) * time.Microsecond
			}
			gotRows, err := live.AnswerBudget(context.Background(), q, qb)
			if err != nil {
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("trial %d (%s): query fault: %v", trial, strat, err)
				}
				// Canceled query: retry unbudgeted — the engine must still
				// serve the exact committed state.
				gotRows, err = live.Answer(q)
				if err != nil {
					t.Fatalf("trial %d (%s): post-cancel retry: %v", trial, strat, err)
				}
			}
			if !storage.TuplesEqual(gotRows, wantRows) {
				t.Fatalf("trial %d (%s) batch %d: live diverges from re-materialization\n  live:  %v\n  fresh: %v",
					trial, strat, batch, gotRows, wantRows)
			}
		}
	}
}
