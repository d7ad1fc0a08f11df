package main

// The four workloads. Each builds plain base facts and view definitions from
// the seed, the texts to prepare, the table of distinct requests with the
// reply the oracle expects, and the request sequence of every round.
//
// The oracle is datalog.EvalQueryNaive over the plain base facts — never the
// engine, a rewriting or a view extent. Where the views cover the query only
// partly, the expected answers are the certain answers, and the expansion
// that defines them is written out by hand next to the view definitions.
//
// What the seed varies is data values, keys, constants, variable names and
// request order. The shape of a workload (relation sizes, view definitions,
// query templates) is fixed, so that runs with different seeds do the same
// amount of work.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
	"repro/internal/workload"
)

// workloadNames is the order used everywhere a list is printed.
var workloadNames = []string{"point_exec", "inverse_exec", "adhoc_plan", "churn_durable"}

// opsPerSecond is the number of operations a run performs per second of
// --seconds, per workload: counts are fixed, not durations, so two commits do
// identical work. The values make a run last about --seconds on the 2-core
// host the benchmark was defined on.
var opsPerSecond = map[string]float64{
	"point_exec":    150000,
	"inverse_exec":  440,
	"adhoc_plan":    2400,
	"churn_durable": 380,
}

// spec is a generated workload.
type spec struct {
	name     string
	strategy string
	base     *storage.Database // plain base facts; never indexed, never mutated
	views    []*cq.Query
	clients  int
	// reps is how often a run builds and how often it reopens the namespace;
	// setup_s and recover_s are the medians. Five where a build takes most
	// of a second, more where it takes a fraction.
	reps int
	// rounds is the number of measured rounds the run's operations are
	// dealt into. Short rounds let the in-run statistic find the moments the
	// host left the process alone; churn_durable's rounds are long enough
	// to hold about three checkpoints each, so none escapes their cost.
	rounds int

	// prepare lists the texts the warm-up prepares; bind receives their
	// handles and builds the request table.
	prepare []string
	bind    func(handles []string) error
	// round returns the actors of round r; r < 0 is the warm-up.
	round func(r, opsPerRound int, clients []*client) []*actor
	// probe is a read request whose reply marks a recovered namespace as
	// serving correct answers.
	probe func() *request
	// final checks the end state through the handler (churn_durable only).
	final func() []*request
	// planHits is the share of requests that must hit the plan cache, or -1.
	planHits float64
}

// newShape returns the generator of everything that decides how much work a
// workload is — which tuples join, how many rows a reply has, what the views
// and templates look like. It is the same for every --seed; the seed picks
// names, constants among equals, and the order of requests.
func newShape() *rand.Rand { return rand.New(rand.NewSource(1995)) }

// oracle evaluates query texts with the naive evaluator over an indexed copy
// of the plain base facts.
type oracle struct{ db *storage.Database }

func newOracle(base *storage.Database) *oracle {
	db := base.Clone()
	db.BuildIndexes()
	return &oracle{db: db}
}

func (o *oracle) rows(texts ...string) [][]string {
	seen := make(map[string]bool)
	var out []storage.Tuple
	for _, text := range texts {
		q, err := cq.ParseQuery(text)
		if err != nil {
			panic(fmt.Sprintf("oracle: %q: %v", text, err))
		}
		for _, t := range datalog.EvalQueryNaive(o.db, q) {
			if k := t.Key(); !seen[k] {
				seen[k] = true
				out = append(out, t)
			}
		}
	}
	storage.SortTuples(out)
	rows := make([][]string, len(out))
	for i, t := range out {
		rows[i] = t
	}
	return rows
}

func readRequest(path string, body any, rows [][]string) *request {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return &request{path: path, body: b, read: true, rows: rows, want: encodeAnswers(rows)}
}

// execRequest executes the prep-th prepared text under args.
func execRequest(handles []string, prep int, args []string, rows [][]string) *request {
	if args == nil {
		args = []string{}
	}
	r := readRequest("/v1/exec", map[string]any{"handle": handles[prep], "args": args}, rows)
	r.prep, r.args = prep, args
	return r
}

func queryRequest(text string, rows [][]string) *request {
	r := readRequest("/v1/query", map[string]any{"query": text}, rows)
	r.text = text
	return r
}

func insert(db *storage.Database, pred string, cols ...string) {
	if err := db.Insert(pred, storage.Tuple(cols)); err != nil {
		panic(err) // arities are fixed by construction
	}
}

func scaled(n int, f float64) int {
	if m := int(float64(n) * f); m > 8 {
		return m
	}
	return 8
}

// split deals reqs out to n actors in turn.
func split(reqs []*request, clients []*client) []*actor {
	actors := make([]*actor, len(clients))
	for i, c := range clients {
		actors[i] = &actor{c: c, lat: make([]int64, 0, len(reqs)/len(clients)+1)}
	}
	for i, r := range reqs {
		a := actors[i%len(actors)]
		a.reqs = append(a.reqs, r)
	}
	return actors
}

func newSpec(name string, seed int64, dataScale float64) (*spec, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "point_exec":
		return pointExec(rng, dataScale), nil
	case "inverse_exec":
		return inverseExec(rng, dataScale), nil
	case "adhoc_plan":
		return adhocPlan(rng, dataScale), nil
	case "churn_durable":
		return churnDurable(rng, dataScale), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// ---- point_exec ----

// pointExec: a prepared point lookup q(Y) :- r(K,Z), s(Z,Y) bound per request,
// answered from the join view's extent by one index probe. Evaluation is
// sub-microsecond, so decode, session lookup, admission, bind and encode are
// nearly the whole cost.
func pointExec(rng *rand.Rand, f float64) *spec {
	nR := scaled(60000, f)
	nZ := nR / 2
	base := storage.NewDatabase()
	shape := newShape()
	tag := 100 + rng.Intn(900) // keys differ between seeds
	key := func(i int) string { return fmt.Sprintf("k%d_%d", tag, i) }
	for i := 0; i < nR; i++ {
		insert(base, "r", key(i), fmt.Sprintf("z%d", shape.Intn(nZ)))
	}
	for j := 0; j < nZ; j++ {
		y := shape.Intn(nZ)
		insert(base, "s", fmt.Sprintf("z%d", j), fmt.Sprintf("y%d", y))
		insert(base, "s", fmt.Sprintf("z%d", j), fmt.Sprintf("y%d", y+1))
	}
	views, err := cq.ParseViews("v(K,Y) :- r(K,Z), s(Z,Y).")
	if err != nil {
		panic(err)
	}
	s := &spec{name: "point_exec", strategy: "auto", base: base, views: views, clients: 2, reps: 5, rounds: 40, planHits: -1}
	s.prepare = []string{fmt.Sprintf("q(Y) :- r(%s,Z), s(Z,Y)", key(0))}

	nKeys := scaled(20000, f)
	nAbsent := nKeys / 20
	var present, absent []*request
	s.bind = func(h []string) error {
		o := newOracle(base)
		for _, i := range rng.Perm(nR)[:nKeys] {
			rows := o.rows(fmt.Sprintf("q(Y) :- r(%s,Z), s(Z,Y)", key(i)))
			present = append(present, execRequest(h, 0, []string{key(i)}, rows))
		}
		for i := 0; i < nAbsent; i++ {
			absent = append(absent, execRequest(h, 0, []string{fmt.Sprintf("absent%d_%d", tag, i)}, nil))
		}
		return nil
	}
	s.round = func(r, n int, clients []*client) []*actor {
		reqs := make([]*request, n)
		for i := range reqs {
			if rng.Intn(20) == 0 { // 5% of lookups find nothing
				reqs[i] = absent[rng.Intn(len(absent))]
			} else {
				reqs[i] = present[rng.Intn(len(present))]
			}
		}
		return split(reqs, clients)
	}
	s.probe = func() *request { return present[0] }
	return s
}

// ---- inverse_exec ----

// inverseExec: the views cover q(X,Y) :- r(X,Z), s(Z,Y), grp(X,g) only where
// Z is in a or in b, so there is no equivalent rewriting and the
// inverse-rules program is evaluated as a fixpoint on every request.
//
//	v1(X,Y) :- r(X,Z), s(Z,Y), a(Z).   hides Z: Skolem terms join r and s
//	v2(X,Z) :- r(X,Z), b(Z).
//	v3(Z,Y) :- s(Z,Y), b(Z).
//	v4(X,G) :- grp(X,G).
//
// A Skolem Z from v1 never equals a real Z from v2/v3, so the certain answers
// are the union of the two expansions the oracle evaluates:
//
//	q(X,Y) :- r(X,Z), s(Z,Y), a(Z), grp(X,g).
//	q(X,Y) :- r(X,Z), s(Z,Y), b(Z), grp(X,g).
func inverseExec(rng *rand.Rand, f float64) *spec {
	const groups = 2
	nX := scaled(160, f)
	nZ := nX / 2
	base := storage.NewDatabase()
	shape := newShape()
	tag := 100 + rng.Intn(900)
	for i := 0; i < nX; i++ {
		x := fmt.Sprintf("x%d_%d", tag, i)
		z := shape.Intn(nZ)
		insert(base, "r", x, fmt.Sprintf("z%d", z))
		insert(base, "r", x, fmt.Sprintf("z%d", (z+1+shape.Intn(nZ-1))%nZ))
		insert(base, "grp", x, fmt.Sprintf("g%d", i%groups))
	}
	for j := 0; j < nZ; j++ {
		z := fmt.Sprintf("z%d", j)
		y := shape.Intn(nZ)
		insert(base, "s", z, fmt.Sprintf("y%d", y))
		insert(base, "s", z, fmt.Sprintf("y%d", y+1))
		switch j % 3 { // a third of the Z values is covered by no view
		case 0:
			insert(base, "a", z)
		case 1:
			insert(base, "b", z)
		}
	}
	// audit is covered by no view at all: it is stored, indexed, snapshotted
	// and recovered, which gives setup_s and recover_s something to measure,
	// and no rewriting or inverse rule ever reads it.
	for i := 0; i < scaled(100000, f); i++ {
		insert(base, "audit", fmt.Sprintf("x%d_%d", tag, shape.Intn(nX)), fmt.Sprintf("e%d", i))
	}
	views, err := cq.ParseViews(`
		v1(X,Y) :- r(X,Z), s(Z,Y), a(Z).
		v2(X,Z) :- r(X,Z), b(Z).
		v3(Z,Y) :- s(Z,Y), b(Z).
		v4(X,G) :- grp(X,G).`)
	if err != nil {
		panic(err)
	}
	s := &spec{name: "inverse_exec", strategy: "inverse-rules", base: base, views: views, clients: 2, reps: 15, rounds: 40, planHits: -1}
	// Under the fixed inverse-rules strategy constants are compiled into the
	// program, so there is one handle per group and no argument.
	for g := 0; g < groups; g++ {
		s.prepare = append(s.prepare, fmt.Sprintf("q(X,Y) :- r(X,Z), s(Z,Y), grp(X,g%d)", g))
	}
	var table []*request
	s.bind = func(h []string) error {
		o := newOracle(base)
		for g := 0; g < groups; g++ {
			rows := o.rows(
				fmt.Sprintf("q(X,Y) :- r(X,Z), s(Z,Y), a(Z), grp(X,g%d)", g),
				fmt.Sprintf("q(X,Y) :- r(X,Z), s(Z,Y), b(Z), grp(X,g%d)", g))
			table = append(table, execRequest(h, g, nil, rows))
		}
		return nil
	}
	s.round = func(r, n int, clients []*client) []*actor {
		reqs := make([]*request, n)
		for i := range reqs {
			reqs[i] = table[rng.Intn(len(table))]
		}
		return split(reqs, clients)
	}
	s.probe = func() *request { return table[0] }
	return s
}

// ---- adhoc_plan ----

const (
	adhocPreds = 8
	// The engine's default plan LRU holds 128 templates. 160 cold templates
	// requested in a cycle never hit it; 4 hot templates requested every
	// 16th request never leave it.
	adhocCold      = 160
	adhocHot       = 4
	adhocConstants = 4 // constants each template is instantiated with
	adhocMaxRows   = 64
)

// template is a query shape with one variable that requests bind to a
// constant.
type template struct {
	q     *cq.Query
	bound string // variable replaced by a constant
}

// adhocPlan: one-shot /v1/query texts. Three of four requests name a template
// the plan cache no longer holds, so parse, canonicalise, rewriting search,
// containment and compile run; one of four is a renamed, re-constanted repeat
// of a hot template and must hit. Every request binds one variable to a
// constant, which keeps evaluation negligible.
//
// Every predicate is exposed by a one-atom view, except p8, which is visible
// only where flag holds: u8(A,B) :- p8(A,B), flag(A). A query over p8 has no
// equivalent rewriting; its certain answers are those of the query with
// flag(A) added beside every p8(A,B), which is what the oracle evaluates.
func adhocPlan(rng *rand.Rand, f float64) *spec {
	shape := newShape()
	var views []*cq.Query
	for i := 1; i <= adhocPreds; i++ {
		text := fmt.Sprintf("u%d(A,B) :- p%d(A,B).", i, i)
		if i == adhocPreds {
			text = fmt.Sprintf("u%d(A,B) :- p%d(A,B), flag(A).", i, i)
		}
		views = append(views, cq.MustParseQuery(text))
	}
	chain := workload.ChainViews(shape, adhocPreds-1, true, workload.ViewSpec{Count: 6, MinLen: 2, MaxLen: 3, ExposeEndpoints: true, ExposeProb: 0.5})
	star := workload.StarViews(shape, adhocPreds-1, true, workload.ViewSpec{Count: 4, MinLen: 2, MaxLen: 3, ExposeProb: 0.7})
	for i, v := range append(chain, star...) {
		v.Head.Pred = fmt.Sprintf("w%d", i)
		views = append(views, v)
	}

	templates := adhocTemplates(shape, adhocCold+adhocHot)
	hot, cold := templates[:adhocHot], templates[adhocHot:]

	perPred := scaled(2500, f)
	domain := perPred * 2 / 3
	base := storage.NewDatabase()
	for i := 1; i <= adhocPreds; i++ {
		for j := 0; j < perPred; j++ {
			insert(base, fmt.Sprintf("p%d", i), fmt.Sprintf("c%d", shape.Intn(domain)), fmt.Sprintf("c%d", shape.Intn(domain)))
		}
	}
	for j := 0; j < domain; j += 2 {
		insert(base, "flag", fmt.Sprintf("c%d", j))
	}

	// One client: two would race for the order in which templates enter the
	// LRU, and the hit count would no longer be exact.
	s := &spec{name: "adhoc_plan", strategy: "auto", base: base, views: views, clients: 1, reps: 9, rounds: 40, planHits: 0.25}
	// instances[t] holds template t under adhocConstants constants, each
	// spelled with its own variable names.
	var instances [][]*request
	s.bind = func([]string) error {
		o := newOracle(base)
		for _, t := range append(append([]template(nil), hot...), cold...) {
			var reqs []*request
			for tries := 0; len(reqs) < adhocConstants; tries++ {
				if tries > 50*adhocConstants {
					return fmt.Errorf("adhoc_plan: no small instance of %s", t.q)
				}
				q := t.instantiate(rng, fmt.Sprintf("c%d", shape.Intn(domain)))
				rows := o.rows(expandFlag(q).String())
				if len(rows) > adhocMaxRows {
					continue // keep evaluation and encoding negligible
				}
				reqs = append(reqs, queryRequest(q.String(), rows))
			}
			instances = append(instances, reqs)
		}
		return nil
	}
	// The cycle continues across rounds: request i is hot when i%4 == 3.
	next := 0
	s.round = func(r, n int, clients []*client) []*actor {
		if r < 0 && n < 4*adhocHot {
			n = 4 * adhocHot // the warm-up has to plan every hot template
		}
		n -= n % 4 // keep the hit share exact
		reqs := make([]*request, n)
		for i := range reqs {
			var t int
			if next%4 == 3 {
				t = (next / 4) % adhocHot
			} else {
				t = adhocHot + (next-next/4)%adhocCold
			}
			reqs[i] = instances[t][rng.Intn(adhocConstants)]
			next++
		}
		return split(reqs, clients)
	}
	s.probe = func() *request { return instances[0][0] }
	return s
}

// adhocTemplates returns n distinct connected templates over p1..p8: chains
// and stars from internal/workload over every rotation of the predicates,
// then random queries.
func adhocTemplates(shape *rand.Rand, n int) []template {
	seen := make(map[string]bool)
	var out []template
	add := func(q *cq.Query) {
		if len(out) == n || !connected(q) {
			return
		}
		vars := q.Vars()
		t := template{q: q, bound: vars[0].Lex}
		fp := cq.CanonicalizeTemplate(t.instantiate(nil, "c0")).Fingerprint()
		if !seen[fp] {
			seen[fp] = true
			out = append(out, t)
		}
	}
	rotate := func(q *cq.Query, by int) *cq.Query {
		q = q.Clone()
		for i := range q.Body {
			var k int
			fmt.Sscanf(q.Body[i].Pred, "p%d", &k)
			q.Body[i].Pred = fmt.Sprintf("p%d", (k-1+by)%adhocPreds+1)
		}
		return q
	}
	for by := 0; by < adhocPreds; by++ {
		for length := 2; length <= 4; length++ {
			add(rotate(workload.ChainQuery(length, true), by))
		}
		for rays := 2; rays <= 3; rays++ {
			add(rotate(workload.StarQuery(rays, true), by))
		}
	}
	for len(out) < n {
		add(workload.RandomQuery(shape, 2+shape.Intn(3), adhocPreds, 0.5))
	}
	return out
}

// instantiate replaces the bound variable by a constant. With an rng it also
// renames every other variable, so that repeats are α-variants, not copies.
func (t template) instantiate(rng *rand.Rand, constant string) *cq.Query {
	names := make(map[string]cq.Term)
	prefix := "X"
	if rng != nil {
		prefix = fmt.Sprintf("%c%02d_", 'A'+rune(rng.Intn(26)), rng.Intn(100))
	}
	term := func(x cq.Term) cq.Term {
		if !x.IsVar() {
			return x
		}
		if x.Lex == t.bound {
			return cq.Const(constant)
		}
		if _, ok := names[x.Lex]; !ok {
			names[x.Lex] = cq.Var(fmt.Sprintf("%s%d", prefix, len(names)))
		}
		return names[x.Lex]
	}
	q := &cq.Query{Head: cq.Atom{Pred: t.q.Head.Pred}}
	for _, a := range t.q.Body {
		b := cq.Atom{Pred: a.Pred}
		for _, x := range a.Args {
			b.Args = append(b.Args, term(x))
		}
		q.Body = append(q.Body, b)
	}
	for _, x := range t.q.Head.Args {
		if x.Lex != t.bound {
			q.Head.Args = append(q.Head.Args, term(x))
		}
	}
	if len(q.Head.Args) == 0 { // the bound variable was the only one exposed
		for _, a := range q.Body {
			for _, x := range a.Args {
				if x.IsVar() && len(q.Head.Args) == 0 {
					q.Head.Args = append(q.Head.Args, x)
				}
			}
		}
	}
	return q
}

// expandFlag adds flag(A) beside every p8(A,B): the query whose answers over
// the base facts are the certain answers over the views.
func expandFlag(q *cq.Query) *cq.Query {
	out := q.Clone()
	for _, a := range q.Body {
		if a.Pred == fmt.Sprintf("p%d", adhocPreds) {
			out.Body = append(out.Body, cq.Atom{Pred: "flag", Args: []cq.Term{a.Args[0]}})
		}
	}
	return out
}

// connected reports whether the body atoms form one component through shared
// variables; a disconnected query is a cross product, which this workload
// does not want to evaluate.
func connected(q *cq.Query) bool {
	if len(q.Body) == 0 {
		return false
	}
	reached := map[string]bool{}
	done := make([]bool, len(q.Body))
	mark := func(i int) {
		done[i] = true
		for _, x := range q.Body[i].Args {
			reached[x.Lex] = true
		}
	}
	mark(0)
	for grew := true; grew; {
		grew = false
		for i, a := range q.Body {
			if done[i] {
				continue
			}
			for _, x := range a.Args {
				if reached[x.Lex] {
					mark(i)
					grew = true
					break
				}
			}
		}
	}
	for _, d := range done {
		if !d {
			return false
		}
	}
	return true
}

// ---- churn_durable ----

const (
	churnReadsPerBatch = 4
	churnGroupSize     = 100
)

// churnDurable: one writer sends mixed batches (32 inserts and 32 deletes,
// fsync before the acknowledgement); one reader gets four tokens at the start
// of every batch and runs a prepared join over two view extents. The churned
// tuples live beside the stable ones in r, s and the extent of v, but under
// keys of their own and outside reg, so every read has one correct answer
// whether it runs before or after a publish.
//
//	v(K,Y)  :- r(K,Z), s(Z,Y).
//	vg(K,G) :- reg(K,G).
func churnDurable(rng *rand.Rand, f float64) *spec {
	nK := scaled(33000, f)
	nZ := nK / 2
	nG := nK / churnGroupSize
	if nG < 2 {
		nG = 2
	}
	shape := newShape()
	tag := 100 + rng.Intn(900)
	base := storage.NewDatabase()
	for i := 0; i < nK; i++ {
		k := fmt.Sprintf("k%d_%d", tag, i)
		insert(base, "r", k, fmt.Sprintf("z%d", shape.Intn(nZ)))
		insert(base, "reg", k, fmt.Sprintf("g%d", i%nG))
	}
	for j := 0; j < nZ; j++ {
		y := shape.Intn(nZ)
		insert(base, "s", fmt.Sprintf("z%d", j), fmt.Sprintf("y%d", y))
		insert(base, "s", fmt.Sprintf("z%d", j), fmt.Sprintf("y%d", y+1))
	}
	// batchFacts(j) is what batch j inserts and batch j+1 deletes: 8 s-tuples
	// under fresh Z values, 8 r-tuples joining them, 16 r-tuples joining
	// stable Z values.
	type fact struct {
		pred string
		t    [2]string
	}
	batchFacts := func(j int, rng *rand.Rand) []fact {
		var out []fact
		for i := 0; i < 8; i++ {
			cz := fmt.Sprintf("cz%d_%d", j, i)
			out = append(out,
				fact{"s", [2]string{cz, fmt.Sprintf("y%d", rng.Intn(nZ))}},
				fact{"r", [2]string{fmt.Sprintf("c%d_%d", j, i), cz}})
		}
		for i := 8; i < 24; i++ {
			out = append(out, fact{"r", [2]string{fmt.Sprintf("c%d_%d", j, i), fmt.Sprintf("z%d", rng.Intn(nZ))}})
		}
		return out
	}
	live := batchFacts(-1, rng) // present at the start, deleted by batch 0
	for _, x := range live {
		insert(base, x.pred, x.t[0], x.t[1])
	}
	views, err := cq.ParseViews("v(K,Y) :- r(K,Z), s(Z,Y). vg(K,G) :- reg(K,G).")
	if err != nil {
		panic(err)
	}
	s := &spec{name: "churn_durable", strategy: "auto", base: base, views: views, clients: 2, reps: 5, rounds: 8, planHits: -1}
	s.prepare = []string{"q(K,Y) :- reg(K,g0), r(K,Z), s(Z,Y)"}

	var reads []*request
	s.bind = func(h []string) error {
		o := newOracle(base)
		for g := 0; g < nG; g++ {
			rows := o.rows(fmt.Sprintf("q(K,Y) :- reg(K,g%d), r(K,Z), s(Z,Y)", g))
			reads = append(reads, execRequest(h, 0, []string{fmt.Sprintf("g%d", g)}, rows))
		}
		return nil
	}
	group := func(facts []fact) map[string][]storage.Tuple {
		m := make(map[string][]storage.Tuple)
		for _, x := range facts {
			m[x.pred] = append(m[x.pred], storage.Tuple{x.t[0], x.t[1]})
		}
		return m
	}
	nextBatch := 0
	s.round = func(r, n int, clients []*client) []*actor {
		tokens := make(chan struct{}, n*churnReadsPerBatch) // one slot per token: the writer never waits for the reader
		writer := &actor{c: clients[0], release: tokens, releaseN: churnReadsPerBatch, lat: make([]int64, 0, n)}
		reader := &actor{c: clients[1], gate: tokens, lat: make([]int64, 0, n*churnReadsPerBatch)}
		for i := 0; i < n; i++ {
			fresh := batchFacts(nextBatch, rng)
			nextBatch++
			ins, del := group(fresh), group(live)
			body, err := json.Marshal(map[string]any{"updates": ins, "deletes": del})
			if err != nil {
				panic(err)
			}
			want := batchWant{tuples: len(fresh), deleted: len(live)}
			ack, err := json.Marshal(ackBody{Applied: true, Predicates: 2, Tuples: want.tuples, Deleted: want.deleted})
			if err != nil {
				panic(err)
			}
			writer.reqs = append(writer.reqs, &request{path: "/v1/batch", body: body, batch: &want, want: append(ack, '\n'), ins: ins, del: del})
			live = fresh
			for k := 0; k < churnReadsPerBatch; k++ {
				reader.reqs = append(reader.reqs, reads[rng.Intn(len(reads))])
			}
		}
		return []*actor{writer, reader}
	}
	s.probe = func() *request { return reads[0] }
	// final re-materialises the end state from scratch: the base facts at
	// the start, minus the seeded churn facts, plus the last batch.
	s.final = func() []*request {
		end := storage.NewDatabase()
		for _, pred := range base.Predicates() {
			for _, t := range base.Relation(pred).Tuples() {
				if !strings.HasPrefix(t[0], "c-1_") && !strings.HasPrefix(t[0], "cz-1_") {
					insert(end, pred, t...)
				}
			}
		}
		for _, x := range live {
			insert(end, x.pred, x.t[0], x.t[1])
		}
		o := newOracle(end)
		var out []*request
		for _, text := range []string{"q(K,Y) :- r(K,Z), s(Z,Y)", "q(K,G) :- reg(K,G)"} {
			out = append(out, queryRequest(text, o.rows(text)))
		}
		return out
	}
	return s
}
