package integration

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/minicon"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestPlanMissAllocs guards what one plan-cache miss allocates in the two
// rewriting searches, for a fixed three-atom template over the 18-view set of
// the adhoc golden case (the repo benchmark's adhoc_plan views). Before the
// id-indexed representation (PR 18) the counts were 3 310 for minicon.Rewrite
// and 242 for core.Rewriter.Rewrite, and minicon.Rewrite made 210 while it
// deduplicated candidates by rendered text; the budgets are the counts
// measured since, plus a tenth. The engine verifies MiniCon's candidates
// only when the query or a view has comparisons, so a comparison-free miss
// pays the unverified count (92; 141 verified, the count it paid while
// every candidate was verified). The two counts were 116 and 165 while a
// candidate allocated each of its atoms' arguments and every Query.Clone
// each atom's. core.Rewriter.Rewrite made 42 here until it stopped before
// minimising a query with a predicate no view can cover. The two MiniCon
// counts were 92 and 141 until a minimal union member was kept as it is
// instead of cloned, the containment search came from a pool with its
// scratch, and the expansion each verified candidate is tested as was
// numbered in that scratch.
func TestPlanMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	vs := core.MustNewViewSet(goldenCases()[0].views...)
	if vs.Len() != 18 {
		t.Fatalf("%d views, want the 18 of adhoc_plan", vs.Len())
	}
	// No equivalent rewriting exists (p8 is visible only through u8), so
	// the engine runs both searches on such a miss.
	qc := cq.CanonicalizeTemplate(cq.MustParseQuery("q(X3) :- p7(c0,X1), p8(X1,X2), p1(X2,X3)")).PlanQuery()

	for _, c := range []struct {
		verify bool
		budget float64
	}{
		{false, 78}, // measured 71 (92 before, budget 101; 116, budget 128)
		{true, 122}, // measured 111 (141 before, budget 155; 165, budget 181)
	} {
		opt := minicon.Options{VerifyCandidates: c.verify}
		u, _, err := minicon.Rewrite(qc, vs, opt)
		if err != nil || u.Len() == 0 {
			t.Fatalf("minicon %+v: union %v, err %v", opt, u, err)
		}
		got := testing.AllocsPerRun(50, func() { minicon.Rewrite(qc, vs, opt) })
		if got > c.budget {
			t.Errorf("minicon.Rewrite %+v: %.0f allocs per run, budget %.0f", opt, got, c.budget)
		}
	}

	r := core.NewRewriter(vs)
	r.Opt.MaxResults = 8
	if rws, _ := r.Rewrite(qc); len(rws) != 0 {
		t.Fatalf("core: unexpected equivalent rewriting %v", rws[0].Query)
	}
	got := testing.AllocsPerRun(50, func() { r.Rewrite(qc) })
	if budget := 2.0; got > budget { // measured 0
		t.Errorf("core.Rewriter.Rewrite: %.0f allocs per run, budget %.0f", got, budget)
	}
}
