package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/bucket"
	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/inverserules"
	"repro/internal/minicon"
	"repro/internal/storage"
	"repro/internal/workload"
)

// bucketCap bounds the Bucket cartesian product; runs that hit it are
// marked truncated (">" prefix), mirroring the literature's observation
// that the bucket product becomes infeasible.
const bucketCap = 20000

// algorithmRace runs Bucket and MiniCon on one (query, views) instance.
func algorithmRace(q *cq.Query, views []*cq.Query) (row []string, ok bool) {
	vs, err := core.NewViewSet(views...)
	if err != nil {
		return nil, false
	}
	var bu, mu *cq.Union
	var bst bucket.Stats
	var mst minicon.Stats
	bTime := timeIt(func() {
		bu, bst, err = bucket.Rewrite(q, vs, bucket.Options{MaxCombinations: bucketCap, SkipMinimizeUnion: true})
	})
	if err != nil {
		return nil, false
	}
	mTime := timeIt(func() {
		mu, mst, err = minicon.Rewrite(q, vs, minicon.Options{SkipMinimizeUnion: true, MaxCombinations: 5 * bucketCap})
	})
	if err != nil {
		return nil, false
	}
	bCombos := itoa(bst.Combinations)
	if bst.Combinations > bucketCap {
		bCombos = ">" + itoa(bucketCap)
	}
	speedup := "-"
	if mTime > 0 {
		speedup = fmt.Sprintf("%.1fx", float64(bTime)/float64(mTime))
	}
	return []string{
		itoa(len(views)),
		us(bTime), bCombos, itoa(bu.Len()),
		us(mTime), itoa(mst.MCDs), itoa(mu.Len()),
		speedup,
	}, true
}

var raceColumns = []string{"views", "bucket_us", "bucket_combos", "bucket_ucq", "minicon_us", "mcds", "minicon_ucq", "bucket/minicon"}

// F1ChainViews is the chain-query scaling figure: rewriting time vs number
// of views for Bucket and MiniCon.
func F1ChainViews() Table {
	t := Table{
		ID:      "F1",
		Title:   "Rewriting time vs #views — chain queries (len 8)",
		Columns: raceColumns,
	}
	rng := rand.New(rand.NewSource(11))
	q := workload.ChainQuery(8, true)
	// The literature's "two distinguished variables" configuration:
	// subchain views expose only their endpoints, so a view usage must
	// cover its whole span and rewritings are exact tilings of the chain.
	spec := workload.ViewSpec{MinLen: 2, MaxLen: 4, ExposeEndpoints: true, ExposeProb: 0}
	for _, m := range []int{4, 8, 16, 32} {
		spec.Count = m
		views := workload.ChainViews(rng, 8, true, spec)
		if row, ok := algorithmRace(q, views); ok {
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = "expected: MiniCon at or below Bucket; Bucket's combination count grows as the product of bucket sizes."
	return t
}

// F2StarViews is the star-query scaling figure.
func F2StarViews() Table {
	t := Table{
		ID:      "F2",
		Title:   "Rewriting time vs #views — star queries (6 rays)",
		Columns: raceColumns,
	}
	rng := rand.New(rand.NewSource(12))
	q := workload.StarQuery(6, true)
	// "All distinguished" configuration: every view variable is exposed,
	// so views cover single rays and the rewriting count is the product
	// of per-ray choices — the regime where the bucket product and the
	// MCD combination differ only by the failed-candidate work.
	spec := workload.ViewSpec{MinLen: 1, MaxLen: 2, ExposeEndpoints: true, ExposeProb: 1}
	for _, m := range []int{4, 8, 16, 32} {
		spec.Count = m
		views := workload.StarViews(rng, 6, true, spec)
		if row, ok := algorithmRace(q, views); ok {
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = "expected: same ordering as F1; star queries keep buckets small so the gap narrows."
	return t
}

// F3CompleteViews is the complete-query scaling figure — the hardest family.
func F3CompleteViews() Table {
	t := Table{
		ID:      "F3",
		Title:   "Rewriting time vs #views — complete queries (4 vertices)",
		Columns: raceColumns,
	}
	rng := rand.New(rand.NewSource(13))
	q := workload.CompleteQuery(4)
	for _, m := range []int{4, 8, 16} {
		views := workload.CompleteViews(rng, 4, workload.ViewSpec{
			Count: m, MinLen: 2, MaxLen: 3, ExposeProb: 1,
		})
		if row, ok := algorithmRace(q, views); ok {
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = "expected: hardest family; many subgoals per query make bucket products explode fastest."
	return t
}

// F4InverseRulesEval compares answering strategies end-to-end over growing
// databases: inverse rules (no rewriting search, Skolem joins at eval time)
// versus evaluating the MiniCon rewriting, with direct evaluation over the
// base data as the reference.
func F4InverseRulesEval() Table {
	t := Table{
		ID:      "F4",
		Title:   "Answering via inverse rules vs MiniCon MCR evaluation",
		Columns: []string{"tuples/pred", "direct_us", "minicon_rw_us", "minicon_eval_us", "invrules_us", "answers", "agree"},
	}
	const n = 5
	q := workload.ChainQuery(n, true)
	views := []*cq.Query{
		cq.MustParseQuery("v0(Y0,Y2) :- p1(Y0,Y1), p2(Y1,Y2)"),
		cq.MustParseQuery("v1(Y2,Y4) :- p3(Y2,Y3), p4(Y3,Y4)"),
		cq.MustParseQuery("v2(Y4,Y5) :- p5(Y4,Y5)"),
		cq.MustParseQuery("v3(Y0,Y3) :- p1(Y0,Y1), p2(Y1,Y2), p3(Y2,Y3)"),
	}
	vs := core.MustNewViewSet(views...)
	for _, size := range []int{100, 200, 400} {
		rng := rand.New(rand.NewSource(int64(14 + size)))
		base := workload.ChainDatabase(rng, n, true, size, size/4+2)
		viewDB, err := datalog.MaterializeViews(base, views)
		if err != nil {
			continue
		}
		var direct, mcAnswers, irAnswers []storage.Tuple
		dTime := timeIt(func() { direct = datalog.EvalQuery(base, q) })
		var u *cq.Union
		rwTime := timeIt(func() {
			u, _, _ = minicon.Rewrite(q, vs, minicon.Options{VerifyCandidates: true})
		})
		evTime := timeIt(func() { mcAnswers = datalog.EvalUnion(viewDB, u) })
		irTime := timeIt(func() { irAnswers, _ = inverserules.Answer(q, views, viewDB) })
		agree := fmt.Sprint(storage.TuplesEqual(mcAnswers, irAnswers))
		t.Rows = append(t.Rows, []string{
			itoa(size), us(dTime), us(rwTime), us(evTime), us(irTime), itoa(len(mcAnswers)), agree,
		})
		_ = direct
	}
	t.Notes = "expected: inverse rules pay Skolem-join cost at evaluation; MCR evaluation scales better at larger databases; answers agree."
	return t
}

// F5CertainAnswers checks the semantic invariants of maximally-contained
// rewritings on random workloads: the MiniCon and inverse-rules routes
// agree, both are sound, and they recover the direct answers exactly when
// the views preserve the needed information.
func F5CertainAnswers() Table {
	t := Table{
		ID:      "F5",
		Title:   "Certain answers: MCR evaluation vs ground truth",
		Columns: []string{"seed", "family", "direct", "certain", "agree", "sound", "exact"},
	}
	agreeAll, soundAll := true, true
	exactCount := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(20 + seed))
		n := 2 + int(seed%3)
		q := workload.ChainQuery(n, true)
		views := workload.ChainViews(rng, n, true, workload.DefaultViewSpec(6))
		base := workload.ChainDatabase(rng, n, true, 50, 8)
		rep, err := certain.Compare(q, views, base)
		if err != nil {
			continue
		}
		agreeAll = agreeAll && rep.MethodsAgree
		soundAll = soundAll && rep.SoundMC && rep.SoundIR
		if rep.ExactRecovery {
			exactCount++
		}
		t.Rows = append(t.Rows, []string{
			itoa(int(seed)), "chain", itoa(rep.Direct), itoa(rep.CertainMC),
			fmt.Sprint(rep.MethodsAgree), fmt.Sprint(rep.SoundMC && rep.SoundIR), fmt.Sprint(rep.ExactRecovery),
		})
	}
	t.Notes = fmt.Sprintf("expected: agree and sound everywhere. all-agree=%v all-sound=%v exact-recoveries=%d", agreeAll, soundAll, exactCount)
	return t
}

// F6Minimization is the ablation for query minimisation before the
// equivalent-rewriting search. The construction needs no minimised query, so
// both runs must find a rewriting; redundant subgoals only enlarge the
// canonical rewriting (more view atoms to unfold and map into) unless the
// query is minimised first.
func F6Minimization() Table {
	t := Table{
		ID:      "F6",
		Title:   "Ablation: query minimisation before rewriting search",
		Columns: []string{"n", "redundant", "min_us", "min_atoms", "nomin_us", "nomin_atoms", "found_both"},
	}
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{3, 4, 5, 6} {
		q := workload.ChainQuery(n, true)
		// Inject redundant copies of random subgoals with renamed tails.
		red := q.Clone()
		for i := 0; i < n; i++ {
			a := q.Body[rng.Intn(n)].Clone()
			a.Args[1] = cq.Var(fmt.Sprintf("R%d", i))
			red.Body = append(red.Body, a)
		}
		views := workload.ChainViews(rng, n, true, workload.DefaultViewSpec(2*n))
		vs, err := core.NewViewSet(views...)
		if err != nil {
			continue
		}
		withMin := core.NewRewriter(vs)
		var res1 []*core.Rewriting
		var st1 core.Stats
		d1 := timeIt(func() { res1, st1 = withMin.Rewrite(red) })

		noMin := core.NewRewriter(vs)
		noMin.Opt.SkipMinimize = true
		var res2 []*core.Rewriting
		var st2 core.Stats
		d2 := timeIt(func() { res2, st2 = noMin.Rewrite(red) })

		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(len(red.Body) - n), us(d1), itoa(st1.Applications),
			us(d2), itoa(st2.Applications), fmt.Sprint(len(res1) > 0 && len(res2) > 0),
		})
	}
	t.Notes = "atoms: view atoms of the canonical rewriting. expected: found_both = true everywhere (the construction needs no core query); minimisation keeps the canonical rewriting no larger."
	return t
}
