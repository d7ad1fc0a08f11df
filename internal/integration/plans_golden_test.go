package integration

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/minicon"
	"repro/internal/storage"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden plan files under testdata/plans")

// planCase is one seeded view set with the templates planned over it.
type planCase struct {
	name      string
	views     []*cq.Query
	templates []*cq.Query
}

// goldenCases builds the view sets and templates the golden files cover,
// from the same internal/workload generators the repo benchmark's
// adhoc_plan workload uses. Everything is drawn from fixed seeds.
func goldenCases() []planCase {
	const preds = 8
	// adhoc: every predicate behind a one-atom view, p8 visible only through
	// the filtered u8, plus chain and star views over p1..p7; templates are
	// chains, stars and random queries with their first variable bound.
	shape := rand.New(rand.NewSource(1995))
	var adhoc []*cq.Query
	for i := 1; i <= preds; i++ {
		text := fmt.Sprintf("u%d(A,B) :- p%d(A,B).", i, i)
		if i == preds {
			text = fmt.Sprintf("u%d(A,B) :- p%d(A,B), flag(A).", i, i)
		}
		adhoc = append(adhoc, cq.MustParseQuery(text))
	}
	chain := workload.ChainViews(shape, preds-1, true, workload.ViewSpec{Count: 6, MinLen: 2, MaxLen: 3, ExposeEndpoints: true, ExposeProb: 0.5})
	star := workload.StarViews(shape, preds-1, true, workload.ViewSpec{Count: 4, MinLen: 2, MaxLen: 3, ExposeProb: 0.7})
	for i, v := range append(chain, star...) {
		v.Head.Pred = fmt.Sprintf("w%d", i)
		adhoc = append(adhoc, v)
	}
	rotate := func(q *cq.Query, by int) *cq.Query {
		q = q.Clone()
		for i := range q.Body {
			var k int
			fmt.Sscanf(q.Body[i].Pred, "p%d", &k)
			q.Body[i].Pred = fmt.Sprintf("p%d", (k-1+by)%preds+1)
		}
		return q
	}
	var adhocTemplates []*cq.Query
	for by := 0; by < preds; by++ {
		for length := 2; length <= 4; length++ {
			adhocTemplates = append(adhocTemplates, bindFirst(rotate(workload.ChainQuery(length, true), by)))
		}
		for rays := 2; rays <= 3; rays++ {
			adhocTemplates = append(adhocTemplates, bindFirst(rotate(workload.StarQuery(rays, true), by)))
		}
	}
	for i := 0; i < 16; i++ {
		adhocTemplates = append(adhocTemplates, bindFirst(workload.RandomQuery(shape, 2+shape.Intn(3), preds, 0.5)))
	}
	cases := []planCase{{name: "adhoc", views: adhoc, templates: adhocTemplates}}

	// chain / star / random: the classic generator pairs, a few seeds each,
	// with and without a bound variable.
	var c planCase
	c.name = "chain"
	rng := rand.New(rand.NewSource(7))
	c.views = workload.ChainViews(rng, 5, true, workload.DefaultViewSpec(8))
	for n := 2; n <= 5; n++ {
		q := workload.ChainQuery(n, true)
		c.templates = append(c.templates, q, bindFirst(q))
	}
	cases = append(cases, c)

	c = planCase{name: "chain_one_pred"}
	rng = rand.New(rand.NewSource(11))
	c.views = workload.ChainViews(rng, 4, false, workload.DefaultViewSpec(5))
	for n := 2; n <= 3; n++ {
		c.templates = append(c.templates, workload.ChainQuery(n, false))
	}
	cases = append(cases, c)

	c = planCase{name: "star"}
	rng = rand.New(rand.NewSource(13))
	c.views = workload.StarViews(rng, 5, true, workload.DefaultViewSpec(8))
	for n := 2; n <= 5; n++ {
		q := workload.StarQuery(n, true)
		c.templates = append(c.templates, q, bindFirst(q))
	}
	cases = append(cases, c)

	for seed := int64(0); seed < 6; seed++ {
		rng = rand.New(rand.NewSource(300 + seed))
		q := workload.RandomQuery(rng, 3+int(seed%3), 4, 0.5)
		c = planCase{name: fmt.Sprintf("random%d", seed)}
		c.views = workload.RandomViewsForQuery(rng, q, workload.ViewSpec{Count: 6, MinLen: 1, MaxLen: 3, ExposeProb: 0.6})
		c.templates = []*cq.Query{q, bindFirst(q)}
		cases = append(cases, c)
	}
	return cases
}

// bindFirst replaces the first variable of q by the constant c0, dropping it
// from the head (the shape of an adhoc_plan request).
func bindFirst(q *cq.Query) *cq.Query {
	bound := q.Vars()[0]
	s := cq.Subst{bound.Lex: cq.Const("c0")}
	out := &cq.Query{Head: cq.Atom{Pred: q.Head.Pred}}
	for _, a := range q.Body {
		out.Body = append(out.Body, s.ApplyAtom(a))
	}
	for _, x := range q.Head.Args {
		if x != bound {
			out.Head.Args = append(out.Head.Args, x)
		}
	}
	if len(out.Head.Args) == 0 {
		for _, x := range out.Vars() {
			out.Head.Args = append(out.Head.Args, x)
			break
		}
	}
	return out
}

// renderPlans plans every template of c under the four rewriting strategies
// and renders what the plan cache would hold, plus the search statistics of
// the two public rewriting entry points over the template's plan query.
func renderPlans(t *testing.T, c planCase) string {
	t.Helper()
	base := goldenBase(c)
	var sb strings.Builder
	for _, v := range c.views {
		fmt.Fprintf(&sb, "view %s\n", v)
	}
	vs := core.MustNewViewSet(c.views...)
	strategies := []engine.Strategy{engine.EquivalentFirst, engine.MiniCon, engine.Bucket, engine.Auto}
	engines := make([]*engine.Engine, len(strategies))
	for i, s := range strategies {
		e, err := engine.NewFromBase(base, c.views, engine.Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	for _, q := range c.templates {
		fmt.Fprintf(&sb, "\ntemplate %s\n", q)
		for i, s := range strategies {
			p, err := engines[i].Plan(q)
			if err != nil {
				fmt.Fprintf(&sb, "  %s: error %v\n", s, err)
				continue
			}
			fmt.Fprintf(&sb, "  %s: kind=%s chosen=%s params=%v\n", s, p.Kind, p.Chosen, p.Params)
			switch p.Kind {
			case engine.PlanEquivalent:
				fmt.Fprintf(&sb, "    %s\n", p.Rewriting.Query)
			case engine.PlanMaxContained:
				writeMembers(&sb, p.Union.Queries, 12)
			case engine.PlanInverseProgram:
				fmt.Fprintf(&sb, "    program of %d rules\n", len(p.Program.Rules))
			}
		}
		qc := cq.CanonicalizeTemplate(q).PlanQuery()
		r := core.NewRewriter(vs)
		r.Opt.MaxResults = core.AllRewritings
		rws, cst := r.Rewrite(qc)
		fmt.Fprintf(&sb, "  core.Stats %+v\n", cst)
		found := make([]*cq.Query, len(rws))
		for i, rw := range rws {
			found[i] = rw.Query
		}
		writeMembers(&sb, found, 12)
		u, mst, err := minicon.Rewrite(qc, vs, minicon.Options{VerifyCandidates: true})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "  minicon.Stats %+v\n", mst)
		writeMembers(&sb, u.Queries, 0) // the text is under strategy minicon
		raw, rst, err := minicon.Rewrite(qc, vs, minicon.Options{SkipMinimizeUnion: true})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "  minicon.Stats (raw union) %+v\n", rst)
		writeMembers(&sb, raw.Queries, 4)
	}
	return sb.String()
}

// goldenBase draws the base facts the engines of a golden case are built
// over: 40 random tuples over 12 constants for every predicate its views
// mention.
func goldenBase(c planCase) *storage.Database {
	rng := rand.New(rand.NewSource(42))
	preds := map[string]bool{}
	base := storage.NewDatabase()
	for _, v := range c.views {
		for _, a := range v.Body {
			if preds[a.Pred] {
				continue
			}
			preds[a.Pred] = true
			for i := 0; i < 40; i++ {
				tu := make(storage.Tuple, len(a.Args))
				for j := range tu {
					tu[j] = fmt.Sprintf("c%d", rng.Intn(12))
				}
				_ = base.Insert(a.Pred, tu)
			}
		}
	}
	return base
}

// writeMembers renders a list of rewritings in order. Lists longer than
// shown are cut to their first members plus a digest of the whole list, which
// keeps the files reviewable while still pinning every byte.
func writeMembers(sb *strings.Builder, qs []*cq.Query, shown int) {
	h := sha256.New()
	for i, q := range qs {
		line := q.String()
		h.Write([]byte(line + "\n"))
		if i < shown {
			fmt.Fprintf(sb, "    %s\n", line)
		}
	}
	if len(qs) > shown {
		fmt.Fprintf(sb, "    ... %d members in all, sha256 %x\n", len(qs), h.Sum(nil)[:12])
	}
}

// TestPlansGolden pins the planner's output — plan kind, chosen strategy,
// rewriting or union text, and both search statistics — for seeded chain,
// star and random workloads under every rewriting strategy. The files were
// written before the planning representation changed (PR 18) and must stay
// byte-identical: run with -update only for a deliberate change of plans.
func TestPlansGolden(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c.name, renderPlans(t, c))
		})
	}
}

// hardCases are the paper's hard family (R3): a 4-clique view over one edge
// predicate and a random graph query of n vertices at edge probability 0.4,
// seed 1, for n = 10, 12 and 14 (44, 64 and 74 query atoms). None has an
// equivalent rewriting, so the rewriting search must exhaust its space.
func hardCases() []planCase {
	var cases []planCase
	for _, n := range []int{10, 12, 14} {
		v, q := workload.HardUsabilityInstance(rand.New(rand.NewSource(1)), 4, n, 0.4)
		cases = append(cases, planCase{name: fmt.Sprintf("hard%d", n), views: []*cq.Query{v}, templates: []*cq.Query{q}})
	}
	return cases
}

// renderHardPlans renders what the default strategy plans for each template
// of a hard case, and the statistics of the equivalent search and of MiniCon
// as the engine runs them: the step count of core.Stats is the ratchet on
// the search's work. The other strategies are left out: Bucket's product and
// the containment test of a verified MiniCon candidate do not return in
// minutes on these instances.
func renderHardPlans(t *testing.T, c planCase) string {
	t.Helper()
	var sb strings.Builder
	for _, v := range c.views {
		fmt.Fprintf(&sb, "view %s\n", v)
	}
	vs := core.MustNewViewSet(c.views...)
	e, err := engine.NewFromBase(goldenBase(c), c.views, engine.Options{Strategy: engine.Auto})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range c.templates {
		fmt.Fprintf(&sb, "\ntemplate %s\n", q)
		p, err := e.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "  %s: kind=%s chosen=%s params=%v\n", engine.Auto, p.Kind, p.Chosen, p.Params)
		if p.Kind != engine.PlanMaxContained {
			t.Fatalf("%s: plan kind %s, want a MiniCon union", c.name, p.Kind)
		}
		writeMembers(&sb, p.Union.Queries, 1)
		qc := cq.CanonicalizeTemplate(q).PlanQuery()
		r := core.NewRewriter(vs)
		r.Opt.MaxResults = core.AllRewritings
		rws, cst := r.Rewrite(qc)
		fmt.Fprintf(&sb, "  core.Stats %+v\n", cst)
		if len(rws) != 0 {
			t.Fatalf("%s: %d equivalent rewritings, want none", c.name, len(rws))
		}
		_, mst, err := minicon.Rewrite(qc, vs, minicon.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "  minicon.Stats %+v\n", mst)
	}
	return sb.String()
}

// TestHardPlansGolden pins the plans and the search statistics of the hard
// family like TestPlansGolden. Before each atom of the minimised query was
// mapped only onto the unfolded atoms that map back onto it, n = 10 and 14
// did not return in 60 s; the step counts now are the bound a later search
// must not exceed unnoticed.
func TestHardPlansGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the hard family plans in seconds")
	}
	for _, c := range hardCases() {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c.name, renderHardPlans(t, c))
		})
	}
}

// checkGolden compares got with testdata/plans/<name>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "plans", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("plans differ from %s:\n%s", path, firstDiff(string(want), got))
	}
}

func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d\n want: %s\n  got: %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}
