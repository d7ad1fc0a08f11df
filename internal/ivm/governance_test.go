package ivm

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// dbFingerprint serializes a database's full contents for exact
// before/after comparison.
func dbFingerprint(db *storage.Database) string {
	var b strings.Builder
	for _, pred := range db.Predicates() {
		tuples := append([]storage.Tuple(nil), db.Relation(pred).Tuples()...)
		storage.SortTuples(tuples)
		b.WriteString(pred)
		b.WriteString(":")
		for _, t := range tuples {
			b.WriteString(t.Key())
			b.WriteString(";")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestApplyBatchCtxCanceledRollsBack(t *testing.T) {
	base, views := testViews(t)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := dbFingerprint(m.Database())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.ApplyUpdateCtx(ctx, map[string][]storage.Tuple{
		"s": {{"n", "9"}},
	}, nil, datalog.Limits{})
	if !errors.Is(err, datalog.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if dbFingerprint(m.Database()) != before {
		t.Fatal("canceled batch left residue")
	}

	// The same batch retried without the cancel applies cleanly.
	res, err := m.ApplyUpdate(map[string][]storage.Tuple{"s": {{"n", "9"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stored := storedRows(t, res); len(res.BaseInserted["s"]) != 1 || len(stored["v"]) != 1 {
		t.Fatalf("retry result = %+v, stored %v", res, stored)
	}
}

func TestApplyBatchCtxBudgetRollsBack(t *testing.T) {
	base, views := testViews(t)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	flatBefore := dbFingerprint(m.Database())

	// MaxRounds 0 is unlimited; 1 round cannot finish even the seed round's
	// consequences here? The seed round itself is round 1, so force failure
	// with a derivation budget of 0 rows... MaxDerived must be >0 to be
	// active, so use MaxRounds: the batch needs two rounds (seed + quiesce
	// check) only when something derives; a 1-round budget trips once the
	// seed round derived tuples and a second round is still needed. If the
	// budget happens not to trip, the test detects it and uses a stricter
	// check below.
	_, err = m.ApplyUpdateCtx(context.Background(), map[string][]storage.Tuple{
		"s": {{"n", "9"}, {"q", "8"}, {"z", "7"}},
	}, nil, datalog.Limits{MaxDerived: 1})
	if !errors.Is(err, datalog.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	flatAfter := dbFingerprint(m.Database())
	if flatAfter != flatBefore {
		t.Fatal("budget-tripped batch left residue")
	}
}

func TestApplyBatchCtxValidationUnchanged(t *testing.T) {
	base, views := testViews(t)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := dbFingerprint(m.Database())
	// Inserting into a view predicate is rejected up front.
	if _, err := m.ApplyUpdateCtx(context.Background(), map[string][]storage.Tuple{
		"v": {{"a", "b"}},
	}, nil, datalog.Limits{}); err == nil {
		t.Fatal("insert into view predicate should fail")
	}
	// Arity mismatch is a typed error now.
	_, err = m.ApplyUpdateCtx(context.Background(), map[string][]storage.Tuple{
		"r": {{"only-one"}},
	}, nil, datalog.Limits{})
	var ae *storage.ArityError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %T (%v), want *storage.ArityError", err, err)
	}
	after := dbFingerprint(m.Database())
	if after != before {
		t.Fatal("rejected batch mutated the database")
	}
}

// TestApplyBatchCtxRepeatedCancelConverges interleaves canceled and
// successful batches and checks the final state equals applying only the
// successful ones to a fresh maintainer.
func TestApplyBatchCtxRepeatedCancelConverges(t *testing.T) {
	base, views := testViews(t)
	m, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := []map[string][]storage.Tuple{
		{"s": {{"n", "9"}}},
		{"r": {{"c", "q"}}, "s": {{"q", "zz"}}},
		{"s": {{"m", "7"}}},
		{"r": {{"d", "z"}}},
	}
	var applied []map[string][]storage.Tuple
	for i, b := range batches {
		if i%2 == 0 {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.ApplyUpdateCtx(ctx, b, nil, datalog.Limits{}); !errors.Is(err, datalog.ErrCanceled) {
				t.Fatalf("batch %d: err = %v", i, err)
			}
			continue
		}
		if _, err := m.ApplyUpdate(b, nil); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		applied = append(applied, b)
	}
	ref, err := New(base, views, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range applied {
		if _, err := ref.ApplyUpdate(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := dbFingerprint(m.Database())
	want := dbFingerprint(ref.Database())
	if got != want {
		t.Fatalf("state diverged from reference:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestApplyUpdatePanicRollsBack covers the one rollback trigger the
// cancellation and budget tests cannot reach: a panic in the middle of an
// insert-only propagation. The base declares t with one column while a
// view reads two, so a t fact passes validation, is inserted, and blows up
// the delta plan that reads its second column — after the batch's base
// inserts have already landed. The maintainer must be back at its
// pre-batch state when the panic reaches the caller.
func TestApplyUpdatePanicRollsBack(t *testing.T) {
	base, views := testViews(t)
	if _, err := base.Ensure("t", 1); err != nil {
		t.Fatal(err)
	}
	wide, err := cq.ParseViews(`w(A,B) :- r(A,C), t(C,B).`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(base, append(views, wide...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := dbFingerprint(m.Database())

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("propagation over a too-narrow tuple did not panic")
			}
		}()
		m.ApplyUpdate(map[string][]storage.Tuple{
			"r": {{"c", "q"}},
			"s": {{"q", "9"}},
			"t": {{"m"}},
		}, nil)
	}()
	if after := dbFingerprint(m.Database()); after != before {
		t.Fatalf("panicked batch left residue:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	// The maintainer keeps working: the batch without the poisoned fact
	// applies and derives, and counts as new the tuples the panicked batch
	// had inserted.
	res, err := m.ApplyUpdate(map[string][]storage.Tuple{"r": {{"c", "q"}}, "s": {{"q", "9"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stored := storedRows(t, res); len(res.BaseInserted["r"]) != 1 || len(res.BaseInserted["s"]) != 1 ||
		len(stored["v"]) != 1 || len(stored["big"]) != 1 {
		t.Fatalf("retry result = %+v, stored %v", res, stored)
	}
}
