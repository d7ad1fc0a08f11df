package integration

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/minicon"
)

// TestRewriteComplete is R2 and R4 against an independent witness, over the
// comparison-free theorem cases. MiniCon's union is equivalent to the query
// whenever an equivalent rewriting exists (Sagiv–Yannakakis), so one of its
// members is then equivalent itself. core must find a rewriting exactly when
// such a member exists, and BestShortening may never report a longer
// shortest rewriting than such a member shrunk by MinimizeRewriting.
func TestRewriteComplete(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 30
	}
	misses, longer := 0, 0
	for _, family := range []string{"chain", "star", "random"} {
		for seed := int64(0); seed < seeds; seed++ {
			q, views, _ := theoremCase(family, seed)
			vs, err := core.NewViewSet(views...)
			if err != nil {
				t.Fatal(err)
			}
			u, _, err := minicon.Rewrite(q, vs, minicon.Options{})
			if err != nil {
				t.Fatal(err)
			}
			witness := (*cq.Query)(nil)
			for _, m := range u.Queries {
				if ok, err := core.VerifyRewriting(q, m, vs); err == nil && ok {
					if min := core.MinimizeRewriting(q, m, vs); witness == nil || len(min.Body) < len(witness.Body) {
						witness = min
					}
				}
			}
			name := fmt.Sprintf("%s/seed=%d", family, seed)
			if got := core.NewRewriter(vs).RewriteOne(q); (got != nil) != (witness != nil) {
				misses++
				t.Errorf("%s: Rewrite found %v, equivalent MiniCon member %v", name, got != nil, witness)
			} else if got != nil && !containment.Equivalent(got.Expansion, q) {
				t.Errorf("%s: %s does not expand to an equivalent of %s", name, got.Query, q)
			}
			if witness == nil {
				continue
			}
			if s := core.BestShortening(q, vs); !s.Found || s.RewritingSubgoals > len(witness.Body) {
				longer++
				t.Errorf("%s: BestShortening %+v, but %s has %d subgoals", name, s, witness, len(witness.Body))
			}
		}
	}
	if misses+longer > 0 {
		t.Logf("%d misses, %d longer shortenings", misses, longer)
	}
}

// TestRewriteAgainstOracle checks the construction against brute force on
// the theorem cases whose minimised query has at most 4 subgoals, with and
// without comparisons. The oracle tries every set of at most that many
// atoms drawn from the head images of all view-body homomorphisms into the
// minimised query (plus the query's own atoms, for partial rewritings),
// each with the query's comparisons it exposes, and keeps the ones that
// verify. Rewrite must find a rewriting whenever the oracle does, and
// without comparisons BestShortening must report the oracle's shortest
// length.
func TestRewriteAgainstOracle(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 30
	}
	// found counts the cases where the oracle finds a rewriting, by
	// comparisons and partial.
	found := map[[2]bool]int{}
	for _, comparisons := range []bool{false, true} {
		for _, family := range []string{"chain", "star", "random"} {
			for seed := int64(0); seed < seeds; seed++ {
				q, views, _ := theoremCase(family, seed)
				if comparisons {
					addComparisons(q, views, seed)
				}
				qm := containment.Minimize(q)
				if len(qm.Body) > 4 {
					continue
				}
				vs, err := core.NewViewSet(views...)
				if err != nil {
					t.Fatal(err)
				}
				apps := allApplications(vs, qm)
				for _, partial := range []bool{false, true} {
					pool := apps
					if partial {
						pool = append(slices.Clip(apps), qm.Body...)
					}
					shortest := oracleShortest(qm, pool, len(apps), vs)
					if shortest > 0 {
						found[[2]bool{comparisons, partial}]++
					}
					r := core.NewRewriter(vs)
					r.Opt.AllowPartial = partial
					r.Opt.KeepComparisons = true
					got := r.RewriteOne(q)
					name := fmt.Sprintf("%s/seed=%d comparisons=%v partial=%v", family, seed, comparisons, partial)
					if shortest > 0 && got == nil {
						t.Errorf("%s: the oracle found a rewriting of %d subgoals, Rewrite none", name, shortest)
					}
					if got != nil {
						if ok, err := core.VerifyRewriting(q, got.Query, vs); err != nil || !ok {
							t.Errorf("%s: Rewrite returned %s, which does not verify", name, got.Query)
						}
					}
					if partial && !comparisons {
						if s := core.BestShortening(q, vs); s.RewritingSubgoals != shortest {
							t.Errorf("%s: BestShortening %+v, the oracle's shortest %d", name, s, shortest)
						}
					}
				}
			}
		}
	}
	if len(found) < 4 {
		t.Fatalf("the oracle found rewritings in too few modes (%v); the test checks little", found)
	}
	t.Logf("the oracle found rewritings in %v cases (comparisons, partial)", found)
}

// addComparisons gives q a comparison of its first variable with a
// constant, and some views one of a body variable with a constant, all
// drawn from seed. The comparisons are semi-interval, so that containment
// stays Klug's tractable case.
func addComparisons(q *cq.Query, views []*cq.Query, seed int64) {
	rng := rand.New(rand.NewSource(3000 + seed))
	ops := []cq.CompOp{cq.Lt, cq.Le, cq.Ne, cq.Gt}
	consts := []cq.Term{cq.Const("c2"), cq.Const("c3"), cq.Const("c5")}
	q.AddComparison(cq.NewComparison(q.Vars()[0], ops[rng.Intn(len(ops))], consts[rng.Intn(len(consts))]))
	for _, v := range views {
		if rng.Intn(2) == 0 {
			vars := v.Vars()
			v.AddComparison(cq.NewComparison(vars[rng.Intn(len(vars))], ops[rng.Intn(len(ops))], consts[rng.Intn(len(consts))]))
		}
	}
}

// allApplications lists the distinct head images of every homomorphism of
// a view body into q's body, by the containment package's body mappings.
func allApplications(vs *core.ViewSet, q *cq.Query) []cq.Atom {
	var out []cq.Atom
	var s containment.Search
	for _, v := range vs.Views() {
		n := cq.Number(v)
		s.BodyMappings(&n, q, func([]int32) bool {
			a := cq.Atom{Pred: v.Head.Pred}
			for pos, id := range n.Head() {
				img := v.Head.Args[pos] // a constant
				if id != cq.ConstArg {
					img = s.Image(id)
				}
				a.Args = append(a.Args, img)
			}
			if !slices.ContainsFunc(out, a.Equal) {
				out = append(out, a)
			}
			return true
		})
	}
	return out
}

// oracleShortest returns the fewest atoms of pool, at least one of them
// among its first views, that with the query's comparisons they expose
// verify as a rewriting of q, trying every set of at most len(q.Body)
// atoms; 0 means none does.
func oracleShortest(q *cq.Query, pool []cq.Atom, views int, vs *core.ViewSet) int {
	for size := 1; size <= len(q.Body); size++ {
		pick := make([]int, size)
		var try func(k, from int) bool
		try = func(k, from int) bool {
			if k == size {
				if pick[0] >= views {
					return false
				}
				cand := &cq.Query{Head: q.Head}
				for _, i := range pick {
					cand.Body = append(cand.Body, pool[i])
				}
				exposed := func(x cq.Term) bool { return x.IsConst() || cand.InBody(x) }
				for _, c := range q.Comparisons {
					if exposed(c.Left) && exposed(c.Right) {
						cand.Comparisons = append(cand.Comparisons, c)
					}
				}
				if !cand.Valid() {
					return false
				}
				ok, err := core.VerifyRewriting(q, cand, vs)
				return err == nil && ok
			}
			for i := from; i < len(pool); i++ {
				pick[k] = i
				if try(k+1, i+1) {
					return true
				}
			}
			return false
		}
		if try(0, 0) {
			return size
		}
	}
	return 0
}
