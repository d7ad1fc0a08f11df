package integration

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bucket"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/inverserules"
	"repro/internal/minicon"
	"repro/internal/storage"
	"repro/internal/workload"
)

// frozenContained decides sub ⊑ sup for pure conjunctive queries without the
// containment package's search: by Chandra–Merlin, sub ⊑ sup iff sup, run by
// the evaluator over sub's canonical database, returns sub's frozen head.
// The planner's own tests must not be their own oracle.
func frozenContained(t *testing.T, sub, sup *cq.Query) bool {
	t.Helper()
	facts, head := containment.Freeze(sub)
	db := storage.NewDatabase()
	for _, f := range facts {
		tu := make(storage.Tuple, len(f.Args))
		for i, a := range f.Args {
			tu[i] = a.Lex
		}
		if err := db.Insert(f.Pred, tu); err != nil {
			t.Fatal(err)
		}
	}
	want := make(storage.Tuple, len(head.Args))
	for i, a := range head.Args {
		want[i] = a.Lex
	}
	for _, got := range datalog.EvalQuery(db, sup) {
		if got.Key() == want.Key() {
			return true
		}
	}
	return false
}

// theoremCase draws one seeded query, view set and base instance.
func theoremCase(family string, seed int64) (*cq.Query, []*cq.Query, *storage.Database) {
	rng := rand.New(rand.NewSource(1000 + seed))
	n := 2 + int(seed%3)
	switch family {
	case "chain":
		return workload.ChainQuery(n, true),
			workload.ChainViews(rng, n, true, workload.DefaultViewSpec(6)),
			workload.ChainDatabase(rng, n, true, 30, 6)
	case "star":
		return workload.StarQuery(n, true),
			workload.StarViews(rng, n, true, workload.DefaultViewSpec(6)),
			workload.RandomDatabase(rng, starPreds(n), 2, 30, 6)
	default:
		q := workload.RandomQuery(rng, n+1, 3, 0.5)
		return q,
			workload.RandomViewsForQuery(rng, q, workload.ViewSpec{Count: 6, MinLen: 1, MaxLen: 3, ExposeProb: 0.6}),
			workload.RandomDatabase(rng, []string{"p1", "p2", "p3"}, 2, 8, 4)
	}
}

// TestTheoremsAsProperties states the paper's claims as properties of what
// the planner returns, over seeded chain, star and random workloads:
//
//	R1  every rewriting any strategy returns is sound — its expansion is
//	    contained in the query — and an equivalent-first rewriting's
//	    expansion is equivalent to it;
//	R2  an equivalent rewriting has at most as many subgoals as the
//	    minimised query;
//	MCR MiniCon's and Bucket's unions are equivalent as unions of
//	    conjunctive queries, and over an instance they return exactly the
//	    inverse-rules certain answers.
func TestTheoremsAsProperties(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 8
	}
	for _, family := range []string{"chain", "star", "random"} {
		for seed := int64(0); seed < seeds; seed++ {
			q, views, base := theoremCase(family, seed)
			t.Run(fmt.Sprintf("%s/seed=%d", family, seed), func(t *testing.T) {
				vs, err := core.NewViewSet(views...)
				if err != nil {
					t.Fatal(err)
				}
				expand := func(m *cq.Query) *cq.Query {
					exp, err := core.Expand(m, vs)
					if err != nil {
						t.Fatalf("expand %s: %v", m, err)
					}
					return exp
				}
				n := len(containment.Minimize(q).Body)
				for _, partial := range []bool{false, true} {
					r := core.NewRewriter(vs)
					r.Opt.MaxResults = core.AllRewritings
					r.Opt.AllowPartial = partial
					rws, _ := r.Rewrite(q)
					for _, rw := range rws {
						if len(rw.Query.Body) > n {
							t.Errorf("R2: %s has %d subgoals, the minimised query %d", rw.Query, len(rw.Query.Body), n)
						}
						if exp := expand(rw.Query); !frozenContained(t, exp, q) || !frozenContained(t, q, exp) {
							t.Errorf("R1: %s does not expand to an equivalent of %s", rw.Query, q)
						}
					}
				}

				mu, _, err := minicon.Rewrite(q, vs, minicon.Options{VerifyCandidates: true})
				if err != nil {
					t.Fatal(err)
				}
				bu, _, err := bucket.Rewrite(q, vs, bucket.Options{MaxCombinations: 50000})
				if err != nil {
					t.Fatal(err)
				}
				expanded := map[string]*cq.Union{}
				for name, u := range map[string]*cq.Union{"minicon": mu, "bucket": bu} {
					eu := &cq.Union{}
					for _, m := range u.Queries {
						exp := expand(m)
						if !frozenContained(t, exp, q) {
							t.Errorf("R1: %s member %s is not contained in %s", name, m, q)
						}
						eu.Add(exp)
					}
					expanded[name] = eu
				}
				// Sagiv–Yannakakis: a member is contained in a union of pure
				// conjunctive queries iff it is contained in one of its members.
				for _, dir := range [][2]string{{"minicon", "bucket"}, {"bucket", "minicon"}} {
					for _, m := range expanded[dir[0]].Queries {
						covered := false
						for _, o := range expanded[dir[1]].Queries {
							if covered = frozenContained(t, m, o); covered {
								break
							}
						}
						if !covered {
							t.Errorf("MCR: %s member expanding to %s is in no member of %s's union", dir[0], m, dir[1])
						}
					}
				}

				viewDB, err := datalog.MaterializeViews(base, views)
				if err != nil {
					t.Fatal(err)
				}
				certain, err := inverserules.Answer(q, views, viewDB)
				if err != nil {
					t.Fatal(err)
				}
				for name, u := range map[string]*cq.Union{"minicon": mu, "bucket": bu} {
					if got := datalog.EvalUnion(viewDB, u); !storage.TuplesEqual(got, certain) {
						t.Errorf("MCR: %s returns %d answers, inverse rules %d certain answers", name, len(got), len(certain))
					}
				}
			})
		}
	}
}

// TestMiniConSoundByConstruction is R1 for MiniCon as published: without
// comparisons, every combination of MCDs is contained in the query, so no
// candidate needs verifying. Over the theorem cases, every member of the
// unverified raw union must expand into the query, and the unverified
// minimised union must be the verified one. Before MCD formation kept
// existentials apart, 74 of the 600 cases failed both.
func TestMiniConSoundByConstruction(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	for _, family := range []string{"chain", "star", "random"} {
		for seed := int64(0); seed < seeds; seed++ {
			q, views, _ := theoremCase(family, seed)
			vs, err := core.NewViewSet(views...)
			if err != nil {
				t.Fatal(err)
			}
			raw, _, err := minicon.Rewrite(q, vs, minicon.Options{SkipMinimizeUnion: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range raw.Queries {
				exp, err := core.Expand(m, vs)
				if err != nil {
					t.Fatalf("%s/%d: expand %s: %v", family, seed, m, err)
				}
				if !frozenContained(t, exp, q) {
					t.Errorf("%s/%d: member %s of %s is unsound", family, seed, m, q)
				}
			}
			unverified, _, _ := minicon.Rewrite(q, vs, minicon.Options{})
			verified, _, _ := minicon.Rewrite(q, vs, minicon.Options{VerifyCandidates: true})
			if unverified.String() != verified.String() {
				t.Errorf("%s/%d: unverified union\n%s\nverified\n%s", family, seed, unverified, verified)
			}
		}
	}
}

// TestRewritingsSoundWithComparisons is R1 with comparison predicates in the
// query and in the views: with comparisons kept, whatever a strategy returns
// must still expand into the query, and over an instance must return only
// answers of the query.
func TestRewritingsSoundWithComparisons(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		n := 2 + int(seed%2)
		q := workload.ChainQuery(n, true)
		// Semi-interval, so that the containment test below is Klug's
		// tractable case and not the exponential linearisation.
		q.AddComparison(cq.NewComparison(cq.Var("X0"), cq.Lt, cq.Const("c3")))
		views := workload.ChainViews(rng, n, true, workload.ViewSpec{Count: 5, MinLen: 1, MaxLen: 2, ExposeEndpoints: true, ExposeProb: 1})
		// One view enforces a comparison of its own.
		views[0].AddComparison(cq.NewComparison(views[0].Head.Args[0], cq.Ne, cq.Const("c0")))
		base := workload.ChainDatabase(rng, n, true, 30, 6)
		vs, err := core.NewViewSet(views...)
		if err != nil {
			t.Fatal(err)
		}
		viewDB, err := datalog.MaterializeViews(base, views)
		if err != nil {
			t.Fatal(err)
		}
		direct := datalog.EvalQuery(base, q)

		var members []*cq.Query
		r := core.NewRewriter(vs)
		r.Opt.MaxResults = core.AllRewritings
		r.Opt.KeepComparisons = true
		rws, _ := r.Rewrite(q)
		for _, rw := range rws {
			members = append(members, rw.Query)
		}
		mu, _, err := minicon.Rewrite(q, vs, minicon.Options{VerifyCandidates: true, KeepComparisons: true})
		if err != nil {
			t.Fatal(err)
		}
		bu, _, err := bucket.Rewrite(q, vs, bucket.Options{KeepComparisons: true})
		if err != nil {
			t.Fatal(err)
		}
		members = append(append(members, mu.Queries...), bu.Queries...)
		if len(mu.Queries) == 0 {
			t.Errorf("seed %d: MiniCon found nothing; the case checks nothing", seed)
		}
		for _, m := range members {
			exp, err := core.Expand(m, vs)
			if err != nil {
				t.Fatalf("seed %d: expand %s: %v", seed, m, err)
			}
			if !containment.Contained(exp, q) {
				t.Errorf("seed %d: R1: %s expands to %s, not contained in %s", seed, m, exp, q)
			}
			if got := datalog.EvalQuery(viewDB, m); !subset(got, direct) {
				t.Errorf("seed %d: %s returns answers the query does not", seed, m)
			}
		}
	}
}
