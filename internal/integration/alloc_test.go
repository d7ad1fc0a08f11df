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
// measured since, plus a tenth.
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

	u, _, err := minicon.Rewrite(qc, vs, minicon.Options{VerifyCandidates: true})
	if err != nil || u.Len() == 0 {
		t.Fatalf("minicon: union %v, err %v", u, err)
	}
	got := testing.AllocsPerRun(50, func() { minicon.Rewrite(qc, vs, minicon.Options{VerifyCandidates: true}) })
	if budget := 181.0; got > budget { // measured 165
		t.Errorf("minicon.Rewrite: %.0f allocs per run, budget %.0f", got, budget)
	}

	r := core.NewRewriter(vs)
	r.Opt.MaxResults = 8
	if rws, _ := r.Rewrite(qc); len(rws) != 0 {
		t.Fatalf("core: unexpected equivalent rewriting %v", rws[0].Query)
	}
	got = testing.AllocsPerRun(50, func() { r.Rewrite(qc) })
	if budget := 46.0; got > budget { // measured 42
		t.Errorf("core.Rewriter.Rewrite: %.0f allocs per run, budget %.0f", got, budget)
	}
}
