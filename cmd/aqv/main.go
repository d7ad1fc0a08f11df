// Command aqv rewrites conjunctive queries using views and optionally
// evaluates the result over data, from datalog-syntax text files.
//
// Usage:
//
//	aqv -query query.dl -views views.dl [-algo equivalent|bucket|minicon|inverse|auto]
//	    [-data facts.dl] [-all] [-partial] [-stats]
//	aqv -queries stream.dl -views views.dl [-data facts.dl] [-algo ...] [-partial]
//	    [-prepare] [-stats]
//	aqv -stream mixed.dl -views views.dl [-data facts.dl] [-algo ...] [-partial] [-stats]
//
// The query file holds one rule; the views file holds one rule per view.
// The optional data file holds ground facts for the *base* relations; view
// extents are materialised from it before evaluation. Durability, admission
// control and request budgets belong to the daemon, cmd/aqvd.
//
// -algo auto plans through the serving engine's cost-driven strategy: per
// query it takes the equivalent rewriting the cost model estimates cheapest
// over the data's catalog and otherwise MiniCon's maximally-contained
// rewriting, reporting which algorithm was chosen.
//
// Batch/serve mode (-queries) answers a stream of query rules — one rule
// per query, "-" reads stdin — through a single plan-caching engine. Plans
// are cached per query *template* (constants abstracted to placeholders),
// so not only repeated or α-equivalent queries but whole point-lookup
// streams differing only in their constants are planned once and served
// from the cache. With -prepare each query additionally reports its
// prepared form: parameter count, chosen strategy and, for an equivalent
// plan, its cost estimate. With -stats the engine's hit/miss/coalescing
// counters are printed after the stream.
//
// Update-stream mode (-stream) serves a live workload that interleaves
// base-fact inserts, deletions and queries, one statement per line ("-"
// reads stdin): ground facts accumulate into a batch, a line prefixed with
// "-" retracts its facts (so an update is a "-" line plus a plain line in
// the same batch), and each query rule first applies the pending batch
// atomically — deletions before insertions, every view extent maintained
// through the engine's incremental delete-rederive path, no
// re-materialization — then answers over the updated extents. With -stats
// the engine's update counters (batches, inserted and deleted tuples,
// derived and retracted extent tuples, maintenance time) are printed too.
//
// Example:
//
//	$ cat query.dl
//	q(X,Y) :- r(X,Z), s(Z,Y).
//	$ cat views.dl
//	v(A,B) :- r(A,C), s(C,B).
//	$ aqv -query query.dl -views views.dl
//	q(X,Y) :- v(X,Y).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	aqv "repro"
	"repro/internal/cq"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aqv:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("aqv", flag.ContinueOnError)
	queryPath := fs.String("query", "", "file containing the query rule")
	queriesPath := fs.String("queries", "", "batch mode: file with a stream of query rules ('-' = stdin), answered through one plan-caching engine")
	streamPath := fs.String("stream", "", "live mode: file interleaving ground facts (inserts), \"-\"-prefixed facts (deletes) and query rules ('-' = stdin), served by one live engine that incrementally maintains the view extents")
	viewsPath := fs.String("views", "", "file containing view definitions")
	dataPath := fs.String("data", "", "optional file of ground base facts; evaluates the rewriting")
	algo := fs.String("algo", "equivalent", "algorithm: equivalent, bucket, minicon, inverse, auto (the cheapest equivalent rewriting, else minicon)")
	all := fs.Bool("all", false, "enumerate all equivalent rewritings (equivalent only)")
	partial := fs.Bool("partial", false, "allow partial rewritings mixing views and base atoms")
	prepare := fs.Bool("prepare", false, "batch mode: report each query's prepared form (template parameters, chosen strategy, an equivalent plan's cost estimate)")
	stats := fs.Bool("stats", false, "print search statistics (engine cache counters in batch mode)")
	explain := fs.Bool("explain", false, "print the compiled execution plan (equivalent: the chosen rewriting, needs -data; inverse: the compiled program)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	modes := 0
	for _, p := range []string{*queryPath, *queriesPath, *streamPath} {
		if p != "" {
			modes++
		}
	}
	if modes == 0 || *viewsPath == "" {
		fs.Usage()
		return fmt.Errorf("-query (or -queries, or -stream) and -views are required")
	}
	if modes > 1 {
		return fmt.Errorf("-query, -queries and -stream are mutually exclusive")
	}

	views, err := loadViews(*viewsPath)
	if err != nil {
		return err
	}
	vs, err := aqv.NewViewSet(views...)
	if err != nil {
		return err
	}

	var base *aqv.Database
	if *dataPath != "" {
		base, err = loadData(*dataPath)
		if err != nil {
			return err
		}
	}

	if *queriesPath != "" {
		return runBatch(out, *queriesPath, views, base, *algo, *partial, *prepare, *stats)
	}
	if *streamPath != "" {
		return runStream(out, *streamPath, views, base, *algo, *partial, *stats)
	}

	q, err := loadQuery(*queryPath)
	if err != nil {
		return err
	}

	switch *algo {
	case "equivalent":
		return runEquivalent(out, q, views, vs, base, *all, *partial, *stats, *explain)
	case "auto":
		return runAuto(out, q, views, base, *partial, *stats, *explain)
	case "bucket":
		u, st, err := aqv.BucketRewrite(q, vs, aqv.BucketOptions{KeepComparisons: true})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, u.String())
		if *stats {
			fmt.Fprintf(out, "%% buckets=%v combinations=%d kept=%d\n", st.BucketSizes, st.Combinations, st.Kept)
		}
		return evalUnionIfData(out, u, views, base)
	case "minicon":
		// Verified as the F-experiments and library callers run MiniCon,
		// not because comparison-free MCDs need it.
		u, st, err := aqv.MiniConRewrite(q, vs, aqv.MiniConOptions{VerifyCandidates: true, KeepComparisons: true})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, u.String())
		if *stats {
			fmt.Fprintf(out, "%% mcds=%d combinations=%d kept=%d\n", st.MCDs, st.Combinations, st.Kept)
		}
		return evalUnionIfData(out, u, views, base)
	case "inverse":
		prog, err := aqv.InverseRulesProgram(q, views)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, prog.String())
		if *explain || base != nil {
			var viewDB *aqv.Database
			if base != nil {
				viewDB, err = aqv.MaterializeViews(base, views)
				if err != nil {
					return err
				}
				viewDB.BuildIndexes()
			} else {
				viewDB = aqv.NewDatabase()
			}
			// Compile once: -explain describes exactly the plan that runs.
			cp, err := aqv.CompileProgram(prog, aqv.NewCatalog(viewDB))
			if err != nil {
				return err
			}
			if *explain {
				fmt.Fprintf(out, "%% compiled program:\n%s", cp.Describe())
			}
			if base != nil {
				derived, fst, err := cp.EvalRelation(viewDB, q.Name(), 1)
				if err != nil {
					return err
				}
				if *stats {
					fmt.Fprintf(out, "%% fixpoint: iterations=%d derived=%d\n", fst.Iterations, fst.Derived)
				}
				printAnswers(out, q.Name(), aqv.CertainAnswers(derived))
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
}

func runEquivalent(out *os.File, q *aqv.Query, views []*aqv.Query, vs *aqv.ViewSet, base *aqv.Database, all, partial, stats, explain bool) error {
	r := aqv.NewRewriter(vs)
	r.Opt.AllowPartial = partial
	r.Opt.KeepComparisons = true
	if all {
		r.Opt.MaxResults = aqv.AllRewritings
	}
	results, st := r.Rewrite(q)
	if len(results) == 0 {
		fmt.Fprintln(out, "% no equivalent rewriting exists for the given views")
	}
	for _, rw := range results {
		kind := "complete"
		if !rw.Complete {
			kind = "partial"
		}
		fmt.Fprintf(out, "%s  %% %s\n", rw.Query.String(), kind)
	}
	if stats {
		fmt.Fprintf(out, "%% applications=%d candidates=%d equivalence_checks=%d\n",
			st.Applications, st.CandidatesTried, st.EquivalenceChecks)
	}
	if base != nil && len(results) > 0 {
		// The execution database is the one an AllowPartial engine
		// serves: view extents plus base relations (partial rewritings
		// read both), materialised and indexed by the maintainer.
		m, err := aqv.NewMaintainer(base, views, aqv.MaintainerOptions{})
		if err != nil {
			return err
		}
		merged := m.Database()
		// Choose the cheapest rewriting under the catalog statistics, then
		// compile only the winner: its estimate walked the join order this
		// compile gives it, and Describe and Eval see that one plan.
		catalog := aqv.NewCatalog(merged)
		candidates := make([]*aqv.Query, len(results))
		for i, rw := range results {
			candidates[i] = rw.Query
		}
		best, estimates := aqv.ChoosePlan(candidates, nil, catalog)
		if stats && len(candidates) > 1 {
			fmt.Fprintf(out, "%% cost model chose plan %d (cost %.0f)\n", best, estimates[best].Cost)
		}
		plan := aqv.CompileQuery(candidates[best], catalog)
		if explain {
			fmt.Fprintf(out, "%% plan:\n%s", plan.Describe())
		}
		printAnswers(out, q.Name(), aqv.SortTuples(plan.EvalParallelUnsortedWith(merged, nil, 1)))
	}
	return nil
}

// runAuto answers one query through the engine's cost-driven strategy,
// reporting which algorithm produced the plan.
func runAuto(out *os.File, q *aqv.Query, views []*aqv.Query, base *aqv.Database, partial, stats, explain bool) error {
	eng, err := newEngine(views, base, string(aqv.StrategyAuto), partial, false)
	if err != nil {
		return err
	}
	pq, err := eng.Prepare(q)
	if err != nil {
		return err
	}
	p := pq.Plan()
	fmt.Fprintf(out, "%% auto chose %s%s\n", p.Chosen, estimateNote(p, " (estimated cost %.0f)"))
	printPlan(out, p)
	if explain {
		switch {
		case p.Compiled != nil:
			fmt.Fprintf(out, "%% plan:\n%s", p.Compiled.Describe())
		case p.CompiledUnion != nil:
			for i, cp := range p.CompiledUnion {
				fmt.Fprintf(out, "%% plan (member %d):\n%s", i+1, cp.Describe())
			}
		}
	}
	if base != nil {
		answers, err := pq.Exec(pq.Args()...)
		if err != nil {
			return err
		}
		printAnswers(out, q.Name(), answers)
	}
	if stats {
		st := eng.Stats()
		fmt.Fprintf(out, "%% engine: compile_time=%v execs=%d exec_time=%v\n",
			st.CompileTime, st.ExecCount, st.ExecTime)
	}
	return nil
}

// printPlan renders the payload of a cached plan, one line. Parameterized
// plans are in planning form — the head carries the template placeholders
// as trailing columns — so the placeholder set is spelled out alongside.
func printPlan(out *os.File, p *aqv.EnginePlan) {
	note := ""
	if len(p.Params) > 0 {
		note = fmt.Sprintf(", head carries params %v", p.Params)
	}
	switch {
	case p.Rewriting != nil:
		fmt.Fprintf(out, "%% plan (%s%s): %s\n", p.Kind, note, p.Rewriting.Query)
	case p.Union != nil:
		fmt.Fprintf(out, "%% plan (%s%s): %d member(s)\n", p.Kind, note, p.Union.Len())
	case p.Program != nil:
		fmt.Fprintf(out, "%% plan (%s%s): %d rule(s)\n", p.Kind, note, len(p.Program.Rules))
	}
}

// estimateNote renders the estimated cost of an equivalent plan under
// format, the one kind of plan a strategy ranks; other plans carry none.
func estimateNote(p *aqv.EnginePlan, format string) string {
	if p.Rewriting == nil {
		return ""
	}
	return fmt.Sprintf(format, p.Estimate.Cost)
}

// newEngine builds the plan-caching engine -algo auto, -queries and -stream
// serve from; live engines accept the stream's update batches. The engine
// resolves algo (ParseStrategy spellings).
func newEngine(views []*aqv.Query, base *aqv.Database, algo string, partial, live bool) (*aqv.Engine, error) {
	if base == nil {
		base = aqv.NewDatabase()
	}
	return aqv.NewEngineFromBase(base, views, aqv.EngineOptions{
		Strategy:     aqv.Strategy(algo),
		AllowPartial: partial,
		LiveUpdates:  live,
	})
}

// printEngineStats reports the engine's counters under -stats: plan cache,
// execution, fixpoint and per-strategy planning work, plus the update
// counters of a live engine.
func printEngineStats(out *os.File, st aqv.EngineStats, live bool) {
	fmt.Fprintf(out, "%% engine: hits=%d misses=%d coalesced=%d evictions=%d cached=%d\n",
		st.Hits, st.Misses, st.Coalesced, st.Evictions, st.CacheLen)
	fmt.Fprintf(out, "%% engine: compile_time=%v execs=%d exec_time=%v\n",
		st.CompileTime, st.ExecCount, st.ExecTime)
	if st.FixpointRuns > 0 {
		fmt.Fprintf(out, "%% engine: fixpoints=%d iterations=%d derived=%d\n",
			st.FixpointRuns, st.FixpointIterations, st.FixpointDerived)
	}
	for _, s := range aqv.EngineStrategies() {
		if agg, ok := st.PerStrategy[s]; ok {
			fmt.Fprintf(out, "%% engine: strategy=%s plans=%d plan_time=%v hits=%d\n", s, agg.Plans, agg.PlanTime, agg.Hits)
		}
	}
	if live {
		fmt.Fprintf(out, "%% engine: update_batches=%d update_tuples=%d update_deleted=%d delta_derived=%d delta_retracted=%d maintain_time=%v\n",
			st.UpdateBatches, st.UpdateTuples, st.UpdateDeleted, st.DeltaDerived, st.DeltaRetracted, st.MaintainTime)
	}
}

// runBatch answers a stream of query rules through one plan-caching engine,
// preparing each query against the template cache and executing it under
// its own constants. Without -data only the plans are printed; with -data
// each query's answers follow its plan.
func runBatch(out *os.File, path string, views []*aqv.Query, base *aqv.Database, algo string, partial, prepare, stats bool) error {
	queries, err := loadQueries(path)
	if err != nil {
		return err
	}
	eng, err := newEngine(views, base, algo, partial, false)
	if err != nil {
		return err
	}
	for i, q := range queries {
		pq, err := eng.Prepare(q)
		if err != nil {
			return fmt.Errorf("query %d (%s): %w", i+1, q.Name(), err)
		}
		p := pq.Plan()
		fmt.Fprintf(out, "%% [%d] %s\n", i+1, q)
		printPlan(out, p)
		if prepare {
			fmt.Fprintf(out, "%% prepared: params=%d args=%v chosen=%s%s template=%s\n",
				pq.NumParams(), pq.Args(), p.Chosen, estimateNote(p, " est=%.0f"), p.Fingerprint)
		}
		if base != nil {
			answers, err := pq.Exec(pq.Args()...)
			if err != nil {
				return err
			}
			printAnswers(out, q.Name(), answers)
		}
	}
	if stats {
		printEngineStats(out, eng.Stats(), false)
	}
	return nil
}

// runStream serves an interleaved update/query stream through one live
// engine: ground facts accumulate into a pending batch — lines prefixed
// with "-" as retractions, plain lines as inserts — and each query rule
// applies the batch atomically (deletions first, every extent maintained
// incrementally) and then answers over the updated snapshot. One statement
// per line; trailing facts are applied at end of stream.
func runStream(out *os.File, path string, views []*aqv.Query, base *aqv.Database, algo string, partial, stats bool) error {
	eng, err := newEngine(views, base, algo, partial, true)
	if err != nil {
		return err
	}
	var data []byte
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}

	step := 0
	pendingIns := make(map[string][]aqv.Tuple)
	pendingDel := make(map[string][]aqv.Tuple)
	nins, ndel := 0, 0
	flush := func() error {
		if nins == 0 && ndel == 0 {
			return nil
		}
		before := eng.Stats()
		if err := eng.ApplyUpdate(pendingIns, pendingDel); err != nil {
			return err
		}
		after := eng.Stats()
		step++
		fmt.Fprintf(out, "%% [%d] batch: %d insert(s) (%d new), %d delete(s) (%d present), +%d/-%d extent tuple(s), maintain=%v\n",
			step, nins, after.UpdateTuples-before.UpdateTuples,
			ndel, after.UpdateDeleted-before.UpdateDeleted,
			after.DeltaDerived-before.DeltaDerived,
			after.DeltaRetracted-before.DeltaRetracted,
			after.MaintainTime-before.MaintainTime)
		pendingIns = make(map[string][]aqv.Tuple)
		pendingDel = make(map[string][]aqv.Tuple)
		nins, ndel = 0, 0
		return nil
	}
	for lineno, line := range strings.Split(string(data), "\n") {
		stmt := strings.TrimSpace(line)
		if stmt == "" || strings.HasPrefix(stmt, "%") {
			continue
		}
		// A "-" prefix marks the line's facts as retractions.
		deleting := false
		if strings.HasPrefix(stmt, "-") {
			deleting = true
			stmt = strings.TrimSpace(strings.TrimPrefix(stmt, "-"))
		}
		prog, err := aqv.ParseProgram(stmt)
		if err != nil {
			return fmt.Errorf("stream line %d: %w", lineno+1, err)
		}
		if len(prog.Queries) > 0 && deleting {
			return fmt.Errorf("stream line %d: a \"-\" line retracts facts; queries cannot be negated", lineno+1)
		}
		if len(prog.Facts) > 0 && len(prog.Queries) > 0 {
			// Mixing both on one line would silently reorder: facts batch
			// up, so a query would see inserts written after it.
			return fmt.Errorf("stream line %d: facts and queries on one line; put each statement on its own line", lineno+1)
		}
		for _, f := range prog.Facts {
			t := make(aqv.Tuple, len(f.Args))
			for i, arg := range f.Args {
				t[i] = arg.Lex
			}
			if deleting {
				pendingDel[f.Pred] = append(pendingDel[f.Pred], t)
				ndel++
			} else {
				pendingIns[f.Pred] = append(pendingIns[f.Pred], t)
				nins++
			}
		}
		for _, q := range prog.Queries {
			if err := q.Validate(); err != nil {
				return fmt.Errorf("stream line %d: %w", lineno+1, err)
			}
			if err := flush(); err != nil {
				return err
			}
			step++
			pq, err := eng.Prepare(q)
			if err != nil {
				return fmt.Errorf("stream line %d (%s): %w", lineno+1, q.Name(), err)
			}
			fmt.Fprintf(out, "%% [%d] %s\n", step, q)
			answers, err := pq.Exec(pq.Args()...)
			if err != nil {
				return err
			}
			printAnswers(out, q.Name(), answers)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if stats {
		printEngineStats(out, eng.Stats(), true)
	}
	return nil
}

// loadQueries reads a stream of query rules; "-" reads stdin.
func loadQueries(path string) ([]*aqv.Query, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	queries, err := aqv.ParseViews(string(data))
	if err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("no query rules in %s", path)
	}
	for _, q := range queries {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	return queries, nil
}

func evalUnionIfData(out *os.File, u *aqv.Union, views []*aqv.Query, base *aqv.Database) error {
	if base == nil || u.Len() == 0 {
		return nil
	}
	viewDB, err := aqv.MaterializeViews(base, views)
	if err != nil {
		return err
	}
	printAnswers(out, u.Queries[0].Name(), aqv.EvalUnion(viewDB, u))
	return nil
}

func printAnswers(out *os.File, name string, answers []aqv.Tuple) {
	fmt.Fprintf(out, "%% %d answer(s):\n", len(answers))
	for _, t := range answers {
		fmt.Fprintf(out, "%s(", name)
		for i, v := range t {
			if i > 0 {
				fmt.Fprint(out, ",")
			}
			fmt.Fprint(out, v)
		}
		fmt.Fprintln(out, ").")
	}
}

func loadQuery(path string) (*aqv.Query, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	q, err := aqv.ParseQuery(string(data))
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

func loadViews(path string) ([]*cq.Query, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	views, err := aqv.ParseViews(string(data))
	if err != nil {
		return nil, err
	}
	for _, v := range views {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	return views, nil
}

func loadData(path string) (*aqv.Database, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := aqv.ParseProgram(string(data))
	if err != nil {
		return nil, err
	}
	if len(prog.Queries) > 0 {
		return nil, fmt.Errorf("data file %s contains rules; only ground facts are allowed", path)
	}
	db := aqv.NewDatabase()
	if err := db.LoadFacts(prog.Facts); err != nil {
		return nil, err
	}
	return db, nil
}
