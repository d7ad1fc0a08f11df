package main

// Traced run (--trace 1): the per-layer metrics.
//
// Nothing inside the program is instrumented. For each traced operation the
// benchmark calls the public entry point at every depth on the identical
// input and times the call from outside:
//
//	handler  server.Handler().ServeHTTP                  on the served namespace
//	engine   PreparedQuery.ExecCtx / Engine.AnswerCtx /  on a twin namespace that
//	         Engine.ApplyUpdateCtx                       has seen the same requests
//	leaves   cq.ParseQuery, cq.CanonicalizeTemplate, core.Rewriter,
//	         minicon.Rewrite, inverserules.Program, datalog.CompileParams /
//	         CompileProgram, CompiledPlan / CompiledProgram evaluation on
//	         Engine.Database(), storage.SortTuples, json.Marshal(server.Rows),
//	         and for a batch a twin ivm.Maintainer.ApplyUpdate and a scratch
//	         durable.Store.Append fed the same batch
//
// A layer's self time is its span minus its children. Counts come from
// Engine.Stats() deltas over rounds run exactly as the timed run does. Spans
// stay in memory and are written when the run ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/inverserules"
	"repro/internal/ivm"
	"repro/internal/minicon"
	"repro/internal/server"
	"repro/internal/storage"
)

const (
	// A twentieth of the run's operations is traced, within these limits.
	minTracedRequests = 256
	maxTracedRequests = 20000
	// autoMaxResults mirrors the engine's candidate budget under the auto
	// strategy, so the twin search does the work the engine's does.
	autoMaxResults = 4
)

// Span names. The first group are the leaves and the two enclosing calls;
// spanMaintain is read from the twin engine's MaintainTime, not called.
const (
	spanHandler  = "server.handler"
	spanEngine   = "engine.call"
	spanParse    = "cq.parse"
	spanCanon    = "cq.canonicalize"
	spanCore     = "core.rewrite"
	spanMiniCon  = "minicon.rewrite"
	spanInverse  = "inverserules.program"
	spanCompile  = "datalog.compile"
	spanEval     = "datalog.eval"
	spanSort     = "storage.sort"
	spanEncode   = "server.encode"
	spanApply    = "ivm.apply"
	spanAppend   = "durable.append"
	spanMaintain = "engine.maintain"
	// Derived per operation: the engine call minus the leaves beneath it,
	// booked as planning overhead when a plan was built and as execution
	// overhead (admission, snapshot pin, bind, counters) otherwise.
	spanPlanSelf = "engine.plan_self"
	spanExecSelf = "engine.exec_self"
	// Derived from the totals: the handler minus its children, and the
	// engine's maintain time minus apply and append.
	spanServerSelf = "server.self"
	spanPublish    = "engine.publish"
)

// leaves are the spans with no children: their self time is their duration.
var leaves = []string{spanParse, spanCanon, spanCore, spanMiniCon, spanInverse, spanCompile, spanEval, spanSort, spanEncode, spanApply, spanAppend}

// selfTimes turns span totals into self times per layer metric. A self time
// below zero means children were measured longer than their parent; it is
// clipped, and the handler time then differs from the sum of self times by
// what is returned as unattributed.
func selfTimes(sum map[string]time.Duration) (self map[string]time.Duration, total, unattributed time.Duration) {
	clip := func(d time.Duration) time.Duration {
		if d < 0 {
			return 0
		}
		return d
	}
	self = map[string]time.Duration{
		spanServerSelf: clip(sum[spanHandler] - sum[spanParse] - sum[spanEngine] - sum[spanEncode]),
		spanPublish:    clip(sum[spanMaintain] - sum[spanApply] - sum[spanAppend]),
		spanPlanSelf:   clip(sum[spanPlanSelf]),
		spanExecSelf:   clip(sum[spanExecSelf]),
	}
	for _, leaf := range leaves {
		self[leaf] = sum[leaf]
	}
	for _, d := range self {
		total += d
	}
	unattributed = sum[spanHandler] - total
	if unattributed < 0 {
		unattributed = -unattributed
	}
	return self, total, unattributed
}

type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	op    int
	spans []span
	// sum is the total time per span name; kind[k] the same over the
	// requests of kind k ("batch" or "read") only; cur the same over the
	// current operation only.
	sum     map[string]time.Duration
	kind    map[string]map[string]time.Duration
	cur     map[string]time.Duration
	curKind string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: make(map[string]time.Duration), cur: make(map[string]time.Duration),
		kind: map[string]map[string]time.Duration{"batch": {}, "read": {}}}
}

// begin starts operation op of the given kind.
func (t *tracer) begin(op int, kind string) {
	t.op, t.curKind = op, kind
	clear(t.cur)
}

// add accounts d to a span name without recording a span: time read from a
// counter, or a self time derived from spans.
func (t *tracer) add(name string, d time.Duration) {
	t.sum[name] += d
	t.kind[t.curKind][name] += d
	t.cur[name] += d
}

// timed runs f as a span of the current operation.
func (t *tracer) timed(name, parent string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.record(name, parent, start, end)
	return end.Sub(start)
}

func (t *tracer) record(name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.add(name, end.Sub(start))
}

// twin is everything below the handler that the traced run calls directly.
type twin struct {
	bed      *bed
	eng      *engine.Engine
	prepared []*engine.PreparedQuery
	views    []*cq.Query
	memo     *containment.Memo
	catalog  *cost.Catalog
	maint    *ivm.Maintainer
	scratch  *durable.Store
	ctx      context.Context
}

// apply sends a request to the twin engine untimed, to keep its plan cache,
// memo and maintained state in step with the served namespace.
func (tw *twin) apply(req *request) error {
	switch {
	case req.batch != nil:
		if err := tw.eng.ApplyUpdateCtx(tw.ctx, req.ins, req.del); err != nil {
			return err
		}
		_, err := tw.maint.ApplyUpdate(req.ins, req.del)
		return err
	case req.text != "":
		q, err := cq.ParseQuery(req.text)
		if err != nil {
			return err
		}
		_, err = tw.eng.AnswerCtx(tw.ctx, q)
		return err
	}
	return nil // an exec changes no state
}

// evalPlan evaluates a plan the way the engine does, in two timed parts: the
// evaluation proper and the sort (for an inverse-rules program: the fixpoint,
// then the Skolem filter and sort).
func (tw *twin) evalPlan(t *tracer, p *engine.Plan, args []string) []storage.Tuple {
	db := tw.eng.Database()
	var raw, answers []storage.Tuple
	switch p.Kind {
	case engine.PlanEquivalent:
		t.timed(spanEval, spanEngine, func() { raw = p.Compiled.EvalParallelUnsortedWith(db, args, 1) })
		t.timed(spanSort, spanEngine, func() { answers = storage.SortTuples(raw) })
	case engine.PlanMaxContained:
		t.timed(spanEval, spanEngine, func() {
			seen := make(map[string]bool)
			for _, cp := range p.CompiledUnion {
				for _, tu := range cp.EvalParallelUnsortedWith(db, args, 1) {
					if k := tu.Key(); !seen[k] {
						seen[k] = true
						raw = append(raw, tu)
					}
				}
			}
		})
		t.timed(spanSort, spanEngine, func() { answers = storage.SortTuples(raw) })
	case engine.PlanInverseProgram:
		t.timed(spanEval, spanEngine, func() {
			raw, _, _ = p.CompiledProgram.EvalRelation(db, p.AnswerPred, 1)
			if len(args) > 0 { // select the binding, project the placeholders away
				kept := raw[:0:0]
				for _, tu := range raw {
					match := len(tu) == p.Arity+len(args)
					for i := 0; match && i < len(args); i++ {
						match = tu[p.Arity+i] == args[i]
					}
					if match {
						kept = append(kept, tu[:p.Arity:p.Arity])
					}
				}
				raw = kept
			}
		})
		t.timed(spanSort, spanEngine, func() { answers = datalog.CertainAnswers(raw) })
	}
	return answers
}

// planTwin repeats the planning steps the engine runs on a plan-cache miss,
// following the auto strategy: equivalent search first, then MiniCon, then
// the inverse-rules program where the engine would build one.
func (tw *twin) planTwin(t *tracer, tmpl *cq.Template, p *engine.Plan) {
	qc := tmpl.PlanQuery()
	var found []*core.Rewriting
	t.timed(spanCore, spanEngine, func() {
		r := core.NewRewriter(tw.eng.Views())
		r.Opt.MaxResults = autoMaxResults
		r.Memo = tw.memo
		found, _ = r.Rewrite(qc)
	})
	if len(found) == 0 {
		var u *cq.Union
		t.timed(spanMiniCon, spanEngine, func() {
			u, _, _ = minicon.Rewrite(qc, tw.eng.Views(), minicon.Options{VerifyCandidates: true})
		})
		if u == nil || u.Len() == 0 || len(tmpl.Params) == 0 {
			t.timed(spanInverse, spanEngine, func() { _, _ = inverserules.Program(qc, tw.views) })
		}
	}
	execQuery := func(q *cq.Query) *cq.Query { // the compiled head drops the placeholders
		if len(p.Params) == 0 {
			return q
		}
		return &cq.Query{Head: cq.Atom{Pred: q.Head.Pred, Args: q.Head.Args[:p.Arity:p.Arity]}, Body: q.Body, Comparisons: q.Comparisons}
	}
	t.timed(spanCompile, spanEngine, func() {
		switch p.Kind {
		case engine.PlanEquivalent:
			datalog.CompileParams(execQuery(p.Rewriting.Query), p.Params, tw.catalog)
		case engine.PlanMaxContained:
			for _, m := range p.Union.Queries {
				datalog.CompileParams(execQuery(m), p.Params, tw.catalog)
			}
		case engine.PlanInverseProgram:
			_, _ = datalog.CompileProgram(p.Program, tw.catalog)
		}
	})
}

// traceOp runs one operation at every depth. It reports whether the engine
// planned (a plan-cache miss) and the engine call's duration.
func (r *benchRun) traceOp(t *tracer, b *bed, tw *twin, req *request) (planned bool, engineTime time.Duration, err error) {
	c := b.clients[0]
	start := time.Now()
	c.do(req.path, req.body)
	t.record(spanHandler, "", start, time.Now())
	r.attempted++
	if !c.ok(req) {
		r.failed++
	}

	var answers []storage.Tuple
	switch {
	case req.batch != nil:
		before := tw.eng.Stats().MaintainTime
		engineTime = t.timed(spanEngine, spanHandler, func() { err = tw.eng.ApplyUpdateCtx(tw.ctx, req.ins, req.del) })
		if err != nil {
			return false, 0, err
		}
		t.add(spanMaintain, tw.eng.Stats().MaintainTime-before)
		var res *ivm.BatchResult
		t.timed(spanApply, spanEngine, func() { res, err = tw.maint.ApplyUpdate(req.ins, req.del) })
		if err != nil {
			return false, 0, err
		}
		t.timed(spanAppend, spanEngine, func() { _, err = tw.scratch.Append(res.BaseDeleted, res.BaseInserted) })
		return false, engineTime, err

	case req.text != "":
		var q *cq.Query
		t.timed(spanParse, spanHandler, func() { q, err = cq.ParseQuery(req.text) })
		if err != nil {
			return false, 0, err
		}
		misses := tw.eng.Stats().Misses
		engineTime = t.timed(spanEngine, spanHandler, func() { answers, err = tw.eng.AnswerCtx(tw.ctx, q) })
		if err != nil {
			return false, 0, err
		}
		planned = tw.eng.Stats().Misses > misses
		var tmpl *cq.Template
		t.timed(spanCanon, spanEngine, func() {
			tmpl = cq.CanonicalizeTemplate(q)
			_ = tmpl.Fingerprint()
		})
		p, err := tw.eng.Plan(q) // a hit: the plan the engine just used
		if err != nil {
			return false, 0, err
		}
		if planned {
			tw.planTwin(t, tmpl, p)
		}
		tw.evalPlan(t, p, tmpl.Args)

	default:
		pq := tw.prepared[req.prep]
		engineTime = t.timed(spanEngine, spanHandler, func() { answers, err = pq.ExecCtx(tw.ctx, req.args...) })
		if err != nil {
			return false, 0, err
		}
		tw.evalPlan(t, pq.Plan(), req.args)
	}
	t.timed(spanEncode, spanHandler, func() { _, err = json.Marshal(server.Rows(answers)) })
	return planned, engineTime, err
}

// interleave merges the actors' request lists into one sequence that keeps
// their proportions: one batch, then its four reads.
func interleave(actors []*actor) []*request {
	shortest := 0
	for _, a := range actors {
		if n := len(a.reqs); n > 0 && (shortest == 0 || n < shortest) {
			shortest = n
		}
	}
	var out []*request
	for i := 0; i < shortest; i++ {
		for _, a := range actors {
			k := len(a.reqs) / shortest
			out = append(out, a.reqs[i*k:(i+1)*k]...)
		}
	}
	return out
}

func indexedClone(db *storage.Database) *storage.Database {
	c := db.Clone()
	c.BuildIndexes()
	return c
}

func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

func per(a uint64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(a) / float64(n)
}

func (r *benchRun) traced() (*result, error) {
	s := r.s
	ms := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return d.Seconds() * 1e3 / float64(n)
	}

	// Set-up, once, with the layer costs inside it taken apart.
	heap0 := heapAlloc()
	base := s.base.Clone()
	t0 := time.Now()
	base.BuildIndexes()
	indexBuild := time.Since(t0)
	b, err := openBed(s, base, r.newDir())
	if err != nil {
		return nil, err
	}
	heap1 := heapAlloc()
	firstSnapshot := b.ns.Engine.Stats().Durable

	t0 = time.Now()
	maint, err := ivm.New(indexedClone(s.base), s.views, ivm.Options{})
	if err != nil {
		return nil, err
	}
	materialize := time.Since(t0)

	tb, err := openBed(s, indexedClone(s.base), r.newDir())
	if err != nil {
		return nil, err
	}
	scratch, err := durable.Open(r.newDir(), durable.Options{})
	if err != nil {
		return nil, err
	}
	defer scratch.Close()
	tw := &twin{bed: tb, eng: tb.ns.Engine, views: s.views, memo: containment.NewMemo(),
		catalog: cost.NewCatalog(tb.ns.Engine.Database()), maint: maint, scratch: scratch, ctx: context.Background()}
	for _, text := range s.prepare {
		pq, err := tw.eng.Prepare(cq.MustParseQuery(text))
		if err != nil {
			return nil, err
		}
		tw.prepared = append(tw.prepared, pq)
	}
	warmed, err := r.warm(b)
	if err != nil {
		return nil, err
	}
	// mirror keeps the twin in step with requests the served namespace got.
	mirror := func(actors []*actor) error {
		for _, req := range interleave(actors) {
			if err := tw.apply(req); err != nil {
				return err
			}
		}
		return nil
	}
	if err := mirror(warmed); err != nil {
		return nil, err
	}

	// A fifth of the rounds, run as the timed run runs them: counts, reply
	// sizes, and the timings the host is too unsteady to gate.
	untracedRounds := s.rounds / 5
	if untracedRounds < 2 {
		untracedRounds = 2
	}
	runtime.GC()
	before := b.ns.Engine.Stats()
	var rowsOut int
	var all []roundStats
	for i := 0; i < untracedRounds; i++ {
		actors := s.round(i, r.opsPerRound, b.clients)
		all = append(all, runRound(actors))
		if err := mirror(actors); err != nil {
			return nil, err
		}
		for _, a := range actors {
			for _, req := range a.reqs {
				rowsOut += len(req.rows)
			}
		}
	}
	timed := r.reduce(all)
	requests, replyBytes := timed.requests, timed.replyBytes
	after := b.ns.Engine.Stats()
	r.checkPlanHits(before, after)
	batches := int(after.UpdateBatches - before.UpdateBatches)
	reads := requests - batches

	// The traced segment: one operation at a time, at every depth.
	t := newTracer()
	requestsPerOp := 1
	if s.final != nil {
		requestsPerOp += churnReadsPerBatch
	}
	tracedOps := r.opsPerRound * s.rounds / 20
	if tracedOps*requestsPerOp < minTracedRequests {
		tracedOps = minTracedRequests / requestsPerOp
	}
	seq := interleave(s.round(untracedRounds, tracedOps, b.clients))
	if len(seq) > maxTracedRequests {
		seq = seq[:maxTracedRequests-maxTracedRequests%requestsPerOp]
	}
	scratch0 := scratch.Stats()
	var handlerOps, hitEngine []int64
	var overrun []float64
	var tracedBatches, plans int
	for i, req := range seq {
		if req.batch != nil {
			t.begin(i, "batch")
			tracedBatches++
		} else {
			t.begin(i, "read")
		}
		planned, engineTime, err := r.traceOp(t, b, tw, req)
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		delta := func(name string) time.Duration { return t.cur[name] }
		if req.batch != nil || s.final == nil { // the operations, not the reads that accompany batches
			handlerOps = append(handlerOps, int64(delta(spanHandler)))
		}
		self := engineTime - delta(spanMaintain)
		for _, leaf := range []string{spanCanon, spanCore, spanMiniCon, spanInverse, spanCompile, spanEval, spanSort} {
			self -= delta(leaf)
		}
		// How far this operation's children overran their parents, as a share
		// of its handler time: the self-check looks at the median of these,
		// which a stall inside one call cannot move.
		over := delta(spanParse) + delta(spanEngine) + delta(spanEncode) - delta(spanHandler)
		if over < 0 {
			over = 0
		}
		if self < 0 {
			over -= self
		}
		overrun = append(overrun, float64(over)/float64(delta(spanHandler)))
		if planned {
			plans++
			t.add(spanPlanSelf, self)
		} else {
			t.add(spanExecSelf, self)
			if req.text != "" {
				hitEngine = append(hitEngine, int64(engineTime))
			}
		}
	}
	scratch1 := scratch.Stats()

	// One recovery, for the durable layer's share of recover_s.
	recoverS, rec, err := r.recoverOnce(b, true)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(filepath.Dir(r.root), fmt.Sprintf("trace-%s-%d.json", r.o.workload, r.o.seed)), t.spans); err != nil {
		return nil, err
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	if err := tb.close(); err != nil {
		return nil, err
	}

	// Layer times are per operation: per request, except on churn_durable,
	// where an operation is a batch and carries its four reads with it.
	n := len(seq)
	if tracedBatches > 0 {
		n = tracedBatches
	}
	self, selfSum, unattributed := selfTimes(t.sum)
	tracedP50 := quantileNs(handlerOps, 0.5)
	untracedP50 := pick(timed.perRound["p50_ms"], false)

	m := map[string]metric{
		"server.self_ms":                 {ms(self[spanServerSelf], n), "ms"},
		"server.encode_ms":               {ms(self[spanEncode], n), "ms"},
		"server.resp_bytes_per_op":       {per(uint64(replyBytes), requests), "B"},
		"server.p99_ms":                  {pick(timed.perRound["p99_ms"], false), "ms"},
		"server.failed_ops":              {float64(r.failed), "count"},
		"engine.exec_self_ms":            {ms(self[spanExecSelf], n), "ms"},
		"engine.admission_queued":        {float64(after.Admission.Queued - before.Admission.Queued), "count"},
		"engine.plan_self_ms":            {ms(self[spanPlanSelf], n), "ms"},
		"engine.cache_hit_ratio":         {ratio(after.Hits-before.Hits, after.Misses-before.Misses), "ratio"},
		"engine.memo_hit_ratio":          {ratio(after.MemoHits-before.MemoHits, after.MemoMisses-before.MemoMisses), "ratio"},
		"engine.hit_p50_ms":              {quantileNs(hitEngine, 0.5), "ms"},
		"engine.publish_ms":              {ms(self[spanPublish], n), "ms"},
		"cq.parse_ms":                    {ms(self[spanParse], n), "ms"},
		"cq.canonicalize_ms":             {ms(self[spanCanon], n), "ms"},
		"core.rewrite_ms":                {ms(self[spanCore], n), "ms"},
		"minicon.rewrite_ms":             {ms(self[spanMiniCon], n), "ms"},
		"inverserules.program_ms":        {ms(self[spanInverse], n), "ms"},
		"containment.checks_per_plan":    {per((after.MemoHits-before.MemoHits)+(after.MemoMisses-before.MemoMisses), int(after.Misses-before.Misses)), "count"},
		"datalog.compile_ms":             {ms(self[spanCompile], n), "ms"},
		"datalog.eval_ms":                {ms(self[spanEval], n), "ms"},
		"datalog.fixpoint_rounds_per_op": {per(after.FixpointIterations-before.FixpointIterations, reads), "count"},
		"datalog.derived_per_op":         {per(after.FixpointDerived-before.FixpointDerived, reads), "count"},
		"datalog.rows_out_per_op":        {per(uint64(rowsOut), reads), "count"},
		"storage.sort_ms":                {ms(self[spanSort], n), "ms"},
		"storage.index_build_s":          {indexBuild.Seconds(), "s"},
		"storage.bytes_per_tuple":        {per(heap1-heap0, s.base.TotalTuples()), "B"},
		"ivm.materialize_s":              {materialize.Seconds(), "s"},
		"ivm.apply_ms":                   {ms(self[spanApply], n), "ms"},
		"ivm.delta_derived_per_batch":    {per(after.DeltaDerived-before.DeltaDerived, batches), "count"},
		"ivm.delta_retracted_per_batch":  {per(after.DeltaRetracted-before.DeltaRetracted, batches), "count"},
		"durable.append_ms":              {ms(self[spanAppend], n), "ms"},
		"durable.wal_bytes_per_batch":    {per(uint64(scratch1.WALBytes-scratch0.WALBytes), tracedBatches), "B"},
		"durable.fsyncs_per_batch":       {per(after.Durable.WALAppends-before.Durable.WALAppends, batches), "count"},
		"durable.checkpoints":            {float64(after.Durable.Snapshots - before.Durable.Snapshots), "count"},
		"durable.snapshot_write_s":       {firstSnapshot.SnapshotTime.Seconds(), "s"},
		"durable.snapshot_load_s":        {(rec.ColdStart - rec.ReplayTime).Seconds(), "s"},
		"durable.replay_batches_s":       {rec.ReplayTime.Seconds(), "s"},
		"durable.bytes_per_tuple":        {per(uint64(firstSnapshot.SnapshotBytes), rec.RecoveredTuples), "B"},
		"ops_s":                          {pick(timed.perRound["ops_s"], true), "1/s"},
		"p50_ms":                         {untracedP50, "ms"},
		"read_p50_ms":                    {pick(timed.perRound["read_p50_ms"], false), "ms"},
		"cpu_ms_per_op":                  {pick(timed.perRound["cpu_ms_per_op"], false), "ms"},
		"recover_s":                      {recoverS, "s"},
		"rss_peak_mb":                    {peakRSSMB(), "MiB"},
		"trace.handler_ms":               {ms(t.sum[spanHandler], n), "ms"},
		"trace.self_sum_ms":              {ms(selfSum, n), "ms"},
		"trace.unattributed_ms":          {ms(unattributed, n), "ms"},
		"trace.overhead_ms":              {tracedP50 - untracedP50, "ms"},
	}
	fmt.Fprintf(r.out, "untraced rounds=%d requests=%d batches=%d; traced requests=%d operations=%d plans_built=%d spans=%d\n",
		untracedRounds, requests, batches, len(seq), n, plans, len(t.spans))
	fmt.Fprintf(r.out, "handler %.6f ms/op = sum of self times %.6f ms/op + unattributed %.6f ms/op\n",
		ms(t.sum[spanHandler], n), ms(selfSum, n), ms(unattributed, n))
	for _, kind := range []string{"batch", "read"} {
		count := tracedBatches
		if kind == "read" {
			count = len(seq) - tracedBatches
		}
		if count == 0 {
			continue
		}
		self, _, _ := selfTimes(t.kind[kind])
		fmt.Fprintf(r.out, "%s requests (%d): handler %.6f ms each =", kind, count, ms(t.kind[kind][spanHandler], count))
		for _, name := range sortedKeys(self) {
			if self[name] > 0 {
				fmt.Fprintf(r.out, " %s %.6f", name, ms(self[name], count))
			}
		}
		fmt.Fprintln(r.out)
	}
	fmt.Fprintf(r.out, "p50 traced %.6f ms, untraced %.6f ms: tracing overhead %.6f ms\n", tracedP50, untracedP50, tracedP50-untracedP50)
	printMetrics(r.out, m)
	// Self-check: the layers have to account for the handler time. The mean
	// is reported; the verdict rests on the median operation, because one
	// stall of the host inside one call moves a mean of a few hundred
	// operations by more than a tenth.
	correct := r.failed == 0
	fmt.Fprintf(r.out, "self-check: children overran their parents by %.2f%% of the handler time in the median operation\n", median(overrun)*100)
	if median(overrun) > 0.10 {
		fmt.Fprintf(r.out, "trace self-check failed: more than a tenth of the handler time is unattributed\n")
		correct = false
	}
	return &result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
