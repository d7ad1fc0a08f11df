// Package engine is the serving front-end of the library: a concurrent,
// plan-caching query answerer that unifies the rewriting algorithms —
// equivalent rewriting search (LMSS95), Bucket, MiniCon and inverse rules —
// behind one prepared-query interface.
//
// An Engine is built once from a view set and a database of materialised
// view extents — plus the base relations, only when Options.AllowPartial
// lets partial rewritings (EquivalentFirst or Auto) read them. Each
// incoming query is canonicalised to a *template* (cq.CanonicalizeTemplate):
// the canonical α-renamed form with its constants abstracted to ordered
// placeholders. Rewriting plans are cached per template in a bounded LRU —
// so not only α-equivalent query texts but whole point-lookup streams
// differing only in their constants share a single plan, compiled once with
// parameter slots (datalog.CompileParams) and executed per request under
// the binding extracted from (or passed with) each query. Concurrent
// requests for the same template coalesce into one rewriting search
// (single-flight), and containment checks performed while planning are
// memoised across queries through a shared containment.Memo.
//
// Prepare returns the template's PreparedQuery handle; Exec(args...) runs
// the cached plan under a fresh binding. Answer is a thin prepare-once-exec
// wrapper, so plain callers get template caching for free.
//
// The expensive work — the exponential rewriting search — therefore runs at
// most once per distinct query *shape*; the steady-state cost of Answer is
// one template-cache hit plus the evaluation of the cached plan.
//
// Strategy selection can be cost-driven: the Auto strategy plans each
// template like EquivalentFirst — an equivalent rewriting, else MiniCon's
// union — but its equivalent search enumerates a few rewritings
// (autoMaxResults) and keeps the one internal/cost estimates cheapest over
// the catalog rather than the first found. The chosen strategy and estimate
// are recorded on the Plan and attributed in Stats.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bucket"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/inverserules"
	"repro/internal/ivm"
	"repro/internal/minicon"
	"repro/internal/storage"
)

// ErrNotLive reports a mutation on an engine built without
// Options.LiveUpdates.
var ErrNotLive = errors.New("engine: built without Options.LiveUpdates; base facts are frozen")

// Strategy selects the rewriting algorithm an Engine plans with.
type Strategy string

const (
	// EquivalentFirst searches for an equivalent rewriting (the paper's
	// core algorithm) and falls back to the MiniCon maximally-contained
	// rewriting when none exists. This is the default.
	EquivalentFirst Strategy = "equivalent-first"
	// Bucket plans with the Bucket algorithm (maximally contained).
	Bucket Strategy = "bucket"
	// MiniCon plans with the MiniCon algorithm (maximally contained).
	MiniCon Strategy = "minicon"
	// InverseRules compiles the query and views into an inverse-rules
	// datalog program; all search cost shifts to evaluation time.
	InverseRules Strategy = "inverse-rules"
	// Auto plans like EquivalentFirst but ranks several equivalent
	// rewritings with the cost model: the cheapest one when any exists,
	// otherwise the MiniCon maximally-contained rewriting. The choice is
	// recorded in Plan.Chosen and attributed per strategy in Stats.
	Auto Strategy = "auto"
)

// autoMaxResults is the equivalent-rewriting candidate budget the Auto
// strategy enumerates and ranks by estimate (EquivalentFirst takes the
// first rewriting found): cost selection needs alternatives to choose
// between, but exhaustive enumeration is exponential.
const autoMaxResults = 4

// Strategies lists the supported strategies.
func Strategies() []Strategy {
	return []Strategy{EquivalentFirst, Bucket, MiniCon, InverseRules, Auto}
}

// ParseStrategy resolves a strategy name, accepting the CLI spellings
// ("equivalent", "inverse") as aliases.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case string(EquivalentFirst), "equivalent":
		return EquivalentFirst, nil
	case string(Bucket):
		return Bucket, nil
	case string(MiniCon):
		return MiniCon, nil
	case string(InverseRules), "inverse":
		return InverseRules, nil
	case string(Auto):
		return Auto, nil
	}
	return "", fmt.Errorf("engine: unknown strategy %q (want one of %v)", name, Strategies())
}

// Options configures an Engine.
type Options struct {
	// Strategy selects the planning algorithm; default EquivalentFirst.
	// Auto ranks equivalent rewritings by cost estimate. Any ParseStrategy
	// spelling is accepted; construction stores the canonical one.
	Strategy Strategy
	// CacheSize bounds the plan LRU; default 128. Minimum 1.
	CacheSize int
	// AllowPartial admits equivalent rewritings that keep base subgoals
	// (EquivalentFirst and Auto, both of which search for equivalent
	// rewritings first); the database must then hold those base relations
	// alongside the view extents, and NewFromBase serves them under those
	// two strategies. Every other engine built by NewFromBase serves the
	// view extents alone: Bucket, MiniCon and InverseRules ignore
	// AllowPartial.
	AllowPartial bool
	// LiveUpdates enables the mutation path: ApplyUpdate applies base-fact
	// inserts and deletes and delta-maintains every view extent instead of the
	// database being frozen forever at construction. Cached plans survive
	// updates — rewritings depend only on the view definitions, never on
	// extent contents.
	LiveUpdates bool
	// MaxConcurrent caps concurrently executing requests (admission
	// control): queries weigh 1, update batches 2. Excess requests wait in
	// a bounded FIFO queue and are shed with ErrOverloaded when it fills.
	// 0 disables admission entirely — every request runs immediately, with
	// no added synchronization.
	MaxConcurrent int
	// MaxQueue bounds the admission wait queue; requests beyond it are
	// shed immediately with an OverloadedError carrying a retry-after
	// hint. 0 means 4×MaxConcurrent; negative means no queue (shed as
	// soon as MaxConcurrent is reached). A queued request waits until it
	// is admitted or its context — Budget.Deadline — fires.
	MaxQueue int
	// DataDir enables durable storage: the directory
	// holds a checksummed snapshot of the materialized state plus an
	// append-only WAL of update batches. Construction opens it — a valid
	// snapshot whose view fingerprint matches is loaded and the WAL
	// replayed instead of re-materializing; a fingerprint mismatch falls
	// back to re-materializing from the recovered base facts (and warns
	// via Logf). Once a snapshot exists, the durable state is the source
	// of truth: the base argument is only used when the directory is
	// empty. Every applied batch is logged and fsynced before it is
	// published to readers; call Close on shutdown to checkpoint and
	// release the store.
	DataDir string
	// SnapshotWALBytes is the WAL size that triggers a background
	// checkpoint truncating the log. 0 means 64 MiB; negative disables
	// background checkpoints (the log then grows until Close or an
	// explicit Checkpoint).
	SnapshotWALBytes int64
	// WALNoSync skips the per-batch fsync: batches survive a process
	// crash but not a host crash. For tests and bulk loads.
	WALNoSync bool
	// Logf receives durability warnings (stale-snapshot rebuilds,
	// background checkpoint failures, fail-stop transitions). nil
	// discards them.
	Logf func(format string, args ...any)
}

// PlanKind discriminates what a cached plan holds.
type PlanKind uint8

const (
	// PlanEquivalent is a verified equivalent rewriting.
	PlanEquivalent PlanKind = iota
	// PlanMaxContained is a maximally-contained rewriting (a UCQ over the
	// view predicates; possibly empty).
	PlanMaxContained
	// PlanInverseProgram is a compiled inverse-rules datalog program.
	PlanInverseProgram
)

// String names the plan kind for diagnostics.
func (k PlanKind) String() string {
	switch k {
	case PlanEquivalent:
		return "equivalent"
	case PlanMaxContained:
		return "max-contained"
	case PlanInverseProgram:
		return "inverse-program"
	default:
		return "unknown"
	}
}

// Plan is a cached, immutable rewriting plan for one query template.
// Evaluating a plan never depends on the variable names or the constant
// values of the query that produced it — the constants arrive as execution
// arguments — so one plan serves every α-equivalent query text and every
// constant instantiation of the template.
type Plan struct {
	// Fingerprint is the template cache key (cq.TemplateFingerprint).
	Fingerprint string
	// Strategy the engine was configured with when the plan was built.
	Strategy Strategy
	// Chosen is the algorithm that actually produced the plan: equal to
	// Strategy for the fixed algorithms, and MiniCon when EquivalentFirst
	// or Auto fell back to the MCR.
	Chosen Strategy
	// Estimate is the cost model's estimate of the chosen rewriting under
	// the construction-time catalog, with the parameter slots treated as
	// bound. It ranks candidates; it does not predict wall-clock time. It
	// is zero for an inverse-rules program, which no strategy ranks.
	Estimate cost.Estimate
	// Params lists the template's placeholder variables in binding order;
	// executions supply one argument per entry. Empty for plans of
	// constant-free queries.
	Params []string
	// Arity is the answer arity (the template head's, before the
	// placeholders were appended for planning).
	Arity int
	// Kind says which of the payload fields below is set.
	Kind PlanKind
	// The logical payloads below are in *planning form*: for a
	// parameterized plan their heads carry the Params placeholders as
	// trailing distinguished columns (arity Arity+len(Params)), which is
	// what forces rewritings to expose the parameter positions. The
	// compiled forms are truncated back to Arity with the placeholders as
	// parameter slots; evaluate through those, never the logical payloads
	// directly.
	//
	// Rewriting is set for PlanEquivalent.
	Rewriting *core.Rewriting
	// Union is set for PlanMaxContained.
	Union *cq.Union
	// Program is set for PlanInverseProgram.
	Program *datalog.Program
	// Compiled is the slot-based physical plan of Rewriting (PlanEquivalent).
	Compiled *datalog.CompiledPlan
	// CompiledUnion holds one physical plan per Union member
	// (PlanMaxContained).
	CompiledUnion []*datalog.CompiledPlan
	// CompiledProgram is the compiled semi-naive form of Program
	// (PlanInverseProgram): every rule lowered to slot plans with delta
	// variants, cached beside the rewriting so the fixpoint is never
	// re-planned on the warm path.
	CompiledProgram *datalog.CompiledProgram
	// AnswerPred is the head predicate answers are derived under.
	AnswerPred string
	// BuildTime is the wall time the rewriting search took.
	BuildTime time.Duration
	// CompileTime is the wall time physical-plan compilation took.
	CompileTime time.Duration
}

// StrategyStats aggregates planning work per strategy. Entries are keyed
// by the strategy that actually produced each plan (Plan.Chosen), so under
// Auto — and under EquivalentFirst's MiniCon fallback — the work lands on
// the algorithm that ran, not the configured label.
type StrategyStats struct {
	// Plans is the number of plans built (cache misses that ran the
	// rewriting search).
	Plans uint64
	// PlanTime is the cumulative wall time spent building those plans.
	PlanTime time.Duration
	// Hits counts cache hits served by plans this strategy built.
	Hits uint64
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Hits counts Prepare/Answer/Plan calls served from the plan cache;
	// handle lookups (Prepared) count as neither a hit nor a miss.
	Hits uint64
	// Misses counts calls that ran the rewriting search.
	Misses uint64
	// Coalesced counts calls that joined an in-flight search for the same
	// fingerprint instead of starting their own.
	Coalesced uint64
	// Evictions counts plans dropped by the LRU bound.
	Evictions uint64
	// CacheLen is the current number of cached plans.
	CacheLen int
	// MemoHits/MemoMisses report the shared containment memo.
	MemoHits   uint64
	MemoMisses uint64
	// CompileTime is the cumulative wall time spent compiling physical
	// plans (paid once per cache miss, amortised across hits).
	CompileTime time.Duration
	// ExecCount/ExecTime report plan executions: the steady-state cost of
	// Answer once the plan cache is warm.
	ExecCount uint64
	ExecTime  time.Duration
	// FixpointRuns counts compiled semi-naive fixpoint evaluations
	// (inverse-rules plans); FixpointIterations and FixpointDerived
	// accumulate their rounds and derived-tuple counts.
	FixpointRuns       uint64
	FixpointIterations uint64
	FixpointDerived    uint64
	// UpdateBatches counts applied live-update batches (LiveUpdates
	// engines); UpdateTuples the base tuples that were new across them,
	// UpdateDeleted the base tuples retracted, DeltaDerived the extent
	// tuples delta-maintenance added (not the ones DRed over-deletes), and
	// DeltaRetracted the extent tuples retracted because a deletion removed
	// their last derivation.
	UpdateBatches  uint64
	UpdateTuples   uint64
	UpdateDeleted  uint64
	DeltaDerived   uint64
	DeltaRetracted uint64
	// MaintainTime is the cumulative wall time of update batches:
	// delta propagation plus the serving-snapshot appends.
	MaintainTime time.Duration
	// Admission reports admission-control outcomes (all zero when
	// Options.MaxConcurrent leaves admission disabled).
	Admission AdmissionStats
	// Panics counts evaluation panics the engine boundary converted into
	// ErrInternal.
	Panics uint64
	// Durable reports the durable-storage position, write work and
	// recovery outcome (zero with Enabled=false when Options.DataDir is
	// unset).
	Durable DurableStats
	// PerStrategy breaks down planning work by strategy.
	PerStrategy map[Strategy]StrategyStats
}

// Engine answers conjunctive queries over materialised views. It is safe
// for concurrent use. Without Options.LiveUpdates the database it serves
// from is frozen (indexed) at construction and must not be mutated
// afterwards; with LiveUpdates, ApplyUpdate applies a batch of base-fact
// inserts and deletes — every extent is incrementally maintained (DRed on
// the delete side) while answers keep flowing.
type Engine struct {
	views    *core.ViewSet
	viewDefs []*cq.Query
	db       *storage.Database
	opt      Options
	memo     *containment.Memo
	// catalog holds the construction-time database statistics, used to
	// order joins and pick probe columns when compiling physical plans.
	// Live updates let it drift: statistics only steer plan shape, never
	// correctness.
	catalog *cost.Catalog
	// constViews records whether any view definition mentions a constant.
	// Constant abstraction is disabled then: a rewriting can hinge on a
	// query constant matching a view's, so a constant-generic template
	// plan could silently answer less than per-query planning would.
	constViews bool
	// compViews records whether any view definition has a comparison
	// (planMiniCon then verifies its candidates).
	compViews bool
	// live is the update path (nil without Options.LiveUpdates).
	live *liveState
	// dur is the durable-storage state (nil without Options.DataDir).
	dur *durableState
	// admit gates request execution (nil without Options.MaxConcurrent).
	admit *admitter

	// Execution counters are atomics: the warm serving path must not
	// serialize on the cache mutex just to record timings.
	execCount     atomic.Uint64
	execTime      atomic.Int64 // nanoseconds
	fixpointRuns  atomic.Uint64
	fixpointIters atomic.Uint64
	fixpointDrvd  atomic.Uint64
	updBatches    atomic.Uint64
	updTuples     atomic.Uint64
	updDeleted    atomic.Uint64
	updDerived    atomic.Uint64
	updRetracted  atomic.Uint64
	maintainTime  atomic.Int64 // nanoseconds
	panics        atomic.Uint64

	mu          sync.Mutex
	cache       *lruCache
	inflight    map[string]*flight
	hits        uint64
	misses      uint64
	coalesced   uint64
	evictions   uint64
	compileTime time.Duration
	perStrategy map[Strategy]*StrategyStats
}

// liveState is the engine's mutation machinery: the incremental maintainer
// and a left-right pair of serving databases giving readers torn-free
// snapshots without blocking them behind maintenance. Every served relation
// exists twice, once per side: two tuple arrays and two sets of indexes over
// one set of rows, since a stored tuple is never written (package storage)
// and the side a batch is replayed onto adopts the rows the maintainer
// stored. The maintainer keeps privately only what no side serves — the
// base relations, unless servesBase — and maintains the sides' own
// relations.
//
// Readers snapshot the active side under its RLock. A writer (one at a
// time, under updateMu) binds the maintainer's database to the inactive
// side's relations and maintains that side in place under its write lock,
// which it holds through the WAL append and the flip that makes the side
// active: no reader, not even a straggler that loaded the inactive index
// before the previous flip, sees a batch that is not logged. The writer then
// replays the batch's journal onto the formerly active side once its
// readers drain.
// Every mutation of a serving side happens under that side's write lock, so
// a reader sees either the pre-batch or the post-batch database — never a
// torn mix — while reads on the active side proceed during maintenance.
type liveState struct {
	maint *ivm.Maintainer
	// servesBase: the serving sides hold the base relations alongside the
	// extents (servesBase(opt); every other engine serves the extents
	// alone), so base deltas are replayed onto them too.
	servesBase bool

	updateMu sync.Mutex
	sides    [2]*storage.Database
	locks    [2]sync.RWMutex
	active   atomic.Int32
	// failed wedges mutations once a batch could not be logged or replayed
	// onto the standby side: no later batch may be maintained onto a side
	// that missed one. Reads keep serving the active side. Guarded by
	// updateMu.
	failed error
}

// flight is one in-progress plan construction other callers can wait on.
type flight struct {
	done chan struct{}
	plan *Plan
	err  error
}

// newEngine builds an Engine serving db, the layout newFromMaintainer
// selected, under options NewFromBase resolved. Every plan reads db as
// given. db is indexed and frozen for concurrent reads.
func newEngine(vs *core.ViewSet, db *storage.Database, opt Options) *Engine {
	if opt.CacheSize <= 0 {
		opt.CacheSize = 128
	}
	db.BuildIndexes()
	e := &Engine{
		views:       vs,
		viewDefs:    vs.Views(),
		db:          db,
		opt:         opt,
		memo:        containment.NewMemo(),
		catalog:     cost.NewCatalog(db),
		constViews:  viewsHaveConstants(vs.Views()),
		compViews:   slices.ContainsFunc(vs.Views(), func(v *cq.Query) bool { return len(v.Comparisons) > 0 }),
		cache:       newLRU(opt.CacheSize),
		inflight:    make(map[string]*flight),
		perStrategy: make(map[Strategy]*StrategyStats),
	}
	e.admit = newAdmitter(opt, e.retryHint)
	return e
}

// viewsHaveConstants reports whether any view definition mentions a
// constant anywhere (head, body or comparisons).
func viewsHaveConstants(views []*cq.Query) bool {
	for _, v := range views {
		if len(v.Constants()) > 0 {
			return true
		}
	}
	return false
}

// NewFromBase builds an Engine straight from base data: it materialises the
// views over base with ivm.New (or, under Options.DataDir, recovers the
// materialised state from disk) and serves the result as newFromMaintainer
// lays it out. base is only read: the maintainer's base relations share
// base's tables until either side writes one (storage.Database.Clone), so
// a write the caller makes to base afterwards reaches no answer. It is the
// one constructor: the options are resolved here once — the strategy to its
// canonical name — so every later switch on them sees one spelling.
func NewFromBase(base *storage.Database, views []*cq.Query, opt Options) (*Engine, error) {
	if len(views) == 0 {
		return nil, errors.New("engine: empty view set")
	}
	if opt.Strategy == "" {
		opt.Strategy = EquivalentFirst
	}
	s, err := ParseStrategy(string(opt.Strategy))
	if err != nil {
		return nil, err
	}
	opt.Strategy = s
	vs, err := core.NewViewSet(views...)
	if err != nil {
		return nil, err
	}
	if opt.DataDir != "" {
		return newDurable(vs, base, views, opt)
	}
	m, err := ivm.New(base, views, ivm.Options{})
	if err != nil {
		return nil, err
	}
	return newFromMaintainer(vs, m, views, opt)
}

// extentsOnly selects the view extents of a maintainer's database without
// copying them: a database of its own holding the maintainer's extent
// relations themselves.
func extentsOnly(m *ivm.Maintainer, views []*cq.Query) (*storage.Database, error) {
	names := make([]string, len(views))
	for i, v := range views {
		if _, err := m.Database().Ensure(v.Name(), v.Arity()); err != nil {
			return nil, err
		}
		names[i] = v.Name()
	}
	db := storage.NewDatabase()
	db.Bind(m.Database(), names...)
	return db, nil
}

// servesBase is the one serving-layout rule: an engine serves the base
// relations alongside the view extents only when it can plan partial
// rewritings, which keep base subgoals — Options.AllowPartial under a
// strategy that searches for equivalent rewritings (EquivalentFirst, the
// default, or Auto). Every other engine serves the view extents alone.
func servesBase(opt Options) bool {
	if !opt.AllowPartial {
		return false
	}
	return opt.Strategy == EquivalentFirst || opt.Strategy == Auto
}

// newFromMaintainer builds the engine around a maintainer — freshly
// materialised by ivm.New, or recovered from a durable snapshot — and is
// where the serving layout (servesBase) is applied. A rewriting is a query
// over the views, so by default the engine serves the view extents alone,
// for every strategy: serving the base relations too would let an
// inverse-rules program read base facts directly, answering more than the
// views expose. Only an engine that can plan partial rewritings serves the
// base relations too. The layout is a selection of the maintainer's own
// relations, not a copy: a static engine serves it and drops the
// maintainer (and with it, the base relations it does not serve); a live
// one keeps the maintainer, serves the selection as side 0 and one clone
// of it as side 1 — a clone that shares side 0's tables until a batch
// first writes a relation, so until then the served state is held once —
// and from then on the maintainer shares whichever side it maintains
// (liveState).
func newFromMaintainer(vs *core.ViewSet, m *ivm.Maintainer, views []*cq.Query, opt Options) (*Engine, error) {
	withBase := servesBase(opt)
	db, err := extentsOnly(m, views)
	if err != nil {
		return nil, err
	}
	if withBase {
		db.Bind(m.Database())
	}
	e := newEngine(vs, db, opt) // indexes db
	if !opt.LiveUpdates {
		return e, nil
	}
	e.live = &liveState{maint: m, servesBase: withBase, sides: [2]*storage.Database{db, db.Clone()}}
	return e, nil
}

// Views returns the engine's view set.
func (e *Engine) Views() *core.ViewSet { return e.views }

// Database returns the database the engine evaluates over. For a live
// engine this is the currently active serving snapshot: do not mutate it,
// and do not read it concurrently with ApplyUpdate — use Answer, which
// locks a snapshot, for concurrent reads.
func (e *Engine) Database() *storage.Database {
	if e.live != nil {
		return e.live.sides[e.live.active.Load()]
	}
	return e.db
}

// snapshot returns the database an evaluation should read and the read lock
// the caller must RUnlock when done, nil when none is held. Live engines pin
// the active side under its read lock: the update path only mutates a side
// under the corresponding write lock, so the pinned database is torn-free
// for the whole evaluation.
func (e *Engine) snapshot() (*storage.Database, *sync.RWMutex) {
	if e.live == nil {
		return e.db, nil
	}
	i := e.live.active.Load()
	lock := &e.live.locks[i]
	lock.RLock()
	return e.live.sides[i], lock
}

// ApplyUpdate applies a batch of base-fact changes — deletions then
// insertions, any number of predicates each, either side possibly nil — and
// delta-maintains every view extent: one propagation per batch instead of a
// full re-materialization, retracting every extent tuple that loses its
// last derivation (DRed — see internal/datalog's ApplyUpdatesCtx). The batch
// is one atomic unit: either every retraction and every insertion lands,
// left-right published to both serving sides, or none do. Batches from
// concurrent callers are serialized; answers keep flowing from the active
// serving snapshot throughout, and every cached plan stays valid
// (rewritings depend only on the view definitions). Deleting from (or inserting into) a view predicate
// is an error, as is calling this on an engine built without
// Options.LiveUpdates. Deleting a tuple that is not present, or inserting
// one that is, is a no-op, not an error.
func (e *Engine) ApplyUpdate(inserts, deletes map[string][]storage.Tuple) error {
	return e.ApplyUpdateCtx(context.Background(), inserts, deletes)
}

// applySide replays a batch the maintainer committed on the other side onto
// serving side i, under the side's write lock, from the batch's journal
// (storage.Journal.Replay) through the side's own: the removals, then the
// rows the batch stored, of the relations the side serves — every one when
// it serves the base relations, else the extents it holds — each adopted,
// so both serving sides hold one physical row. On an error or panic the
// side is rolled back to its pre-batch state before the lock is released,
// so a straggler reading it never sees a torn mix, and mutations are
// wedged: the side missed a committed batch and must never be maintained
// again. A panic is re-raised after that. Called under updateMu.
func (l *liveState) applySide(i int32, batch *storage.Journal) (err error) {
	l.locks[i].Lock()
	defer l.locks[i].Unlock()
	db := l.sides[i]
	j := storage.NewJournal(db)
	defer func() {
		r := recover()
		if r == nil && err == nil {
			return
		}
		j.Rollback()
		cause := err
		if r != nil {
			cause = fmt.Errorf("panic: %v", r)
		}
		l.failed = fmt.Errorf("%w: a committed batch could not be replayed onto the standby serving side; refusing further mutations (reads keep serving): %v", ErrInternal, cause)
		if r != nil {
			panic(r)
		}
		err = l.failed
	}()
	return batch.Replay(j, func(pred string) bool { return l.servesBase || db.Relation(pred) != nil })
}

// PreparedQuery is the reusable handle Prepare returns: a cached plan for
// the query's template plus the binding extracted from the query text.
// Exec runs the plan under any binding, so a point-lookup stream varying
// only in constants prepares once and executes per request. A
// PreparedQuery is immutable and safe for concurrent use; it stays valid
// for the engine's lifetime (the underlying plan may be evicted from the
// cache and re-built for other callers, but this handle keeps its own).
// Each cached plan carries one handle of its own, found by Prepared.
type PreparedQuery struct {
	eng  *Engine
	plan *Plan
	args []string
}

// Plan returns the cached template plan behind the handle.
func (pq *PreparedQuery) Plan() *Plan { return pq.plan }

// NumParams returns the number of execution arguments Exec expects.
func (pq *PreparedQuery) NumParams() int { return len(pq.plan.Params) }

// Args returns the binding extracted from the prepared query's own
// constants, in parameter order — the arguments under which Exec
// reproduces Answer of the original query.
func (pq *PreparedQuery) Args() []string {
	return append([]string(nil), pq.args...)
}

// Exec evaluates the prepared plan under the given argument binding and
// returns the answer tuples in sorted order. It must receive exactly
// NumParams arguments; a mismatch returns an error matching
// ErrArityMismatch.
func (pq *PreparedQuery) Exec(args ...string) ([]storage.Tuple, error) {
	return pq.ExecCtx(context.Background(), args...)
}

// Prepare canonicalises q to its template — constants abstracted to
// ordered placeholders — and returns a PreparedQuery whose plan is cached
// per template, building it on first use. Concurrent calls with the same
// template trigger exactly one rewriting search.
//
// Template plans are constant-generic: the placeholders are planned as
// distinguished variables, so every rewriting exposes them and the cached
// physical plan binds them as parameters per execution. Abstraction is
// turned off (each query text is its own template) in two cases: when a
// view definition itself mentions constants — a rewriting may then hinge
// on a query constant matching the view's, which a generic plan cannot
// exploit — and under the fixed InverseRules strategy, whose programs
// want the constants compiled into the query rule's join rather than
// filtered after the fixpoint.
func (e *Engine) Prepare(q *cq.Query) (*PreparedQuery, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	tmpl := e.template(q)
	fp := tmpl.Fingerprint()
	plan, err := e.cachedPlan(fp, func() (*Plan, error) { return e.buildPlan(tmpl, fp) })
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{eng: e, plan: plan, args: tmpl.Args}, nil
}

// Prepared returns the handle of the cached plan whose Plan.Fingerprint is
// fingerprint, with empty Args, and marks the plan most recently used; ok
// is false once the plan has been evicted (or was never built), and the
// caller re-prepares. The lookup allocates nothing and is neither a cache
// hit nor a miss: Stats.Hits and Stats.Misses count Prepare and Answer.
func (e *Engine) Prepared(fingerprint []byte) (*PreparedQuery, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.getBytes(fingerprint)
}

// cachedPlan returns the plan cached under fp, building it with build on a
// miss; concurrent callers that miss on the same fp share one build.
//
// However the build ends — a panic included, which becomes an
// *InternalError counted in Stats.Panics — the flight is retired and its
// waiters are answered: a flight left registered would block every later
// request for the template forever.
func (e *Engine) cachedPlan(fp string, build func() (*Plan, error)) (plan *Plan, err error) {
	e.mu.Lock()
	if pq, ok := e.cache.get(fp); ok {
		e.hits++
		e.strategyAggLocked(pq.plan.Chosen).Hits++
		e.mu.Unlock()
		return pq.plan, nil
	}
	if fl, ok := e.inflight[fp]; ok {
		e.coalesced++
		e.mu.Unlock()
		<-fl.done
		return fl.plan, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	e.inflight[fp] = fl
	e.misses++
	e.mu.Unlock()

	defer func() {
		e.mu.Lock()
		if err == nil {
			if e.cache.add(fp, PreparedQuery{eng: e, plan: plan}) {
				e.evictions++
			}
		}
		delete(e.inflight, fp)
		e.mu.Unlock()
		fl.plan, fl.err = plan, err
		close(fl.done)
	}()
	defer e.recoverInternal(&err) // runs first: the block above sees its err
	return build()
}

// template canonicalises q for the plan cache: the constant-abstracted
// template normally, or the degenerate no-placeholder template when the
// view set mentions constants (see Prepare) or the engine plans with the
// fixed InverseRules strategy. In the latter case the constants belong
// *inside* the compiled program — they restrict the query rule's join —
// whereas a template program must derive the answer relation for every
// binding and filter afterwards, an asymptotic regression for point
// lookups; per-text plans keep the old behaviour.
func (e *Engine) template(q *cq.Query) *cq.Template {
	if e.constViews || e.opt.Strategy == InverseRules {
		return cq.ConcreteTemplate(q)
	}
	return cq.CanonicalizeTemplate(q)
}

// Plan returns the cached template plan for q, building it on first use.
// A plan is evaluated through Prepare/Exec, which binds the parameters of
// a query with constants.
func (e *Engine) Plan(q *cq.Query) (*Plan, error) {
	pq, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return pq.plan, nil
}

// Answer plans q (through the template cache) and evaluates the plan over
// the engine's database under q's own constants, returning the answer
// tuples in sorted order. It is exactly Prepare followed by Exec with the
// extracted binding.
func (e *Engine) Answer(q *cq.Query) ([]storage.Tuple, error) {
	return e.AnswerCtx(context.Background(), q)
}

// selectParams filters answer-relation tuples of arity+len(args) columns
// down to those whose trailing columns equal args, projected to the first
// arity columns. With no args it returns tuples unchanged.
func selectParams(tuples []storage.Tuple, arity int, args []string) []storage.Tuple {
	if len(args) == 0 {
		return tuples
	}
	var out []storage.Tuple
	for _, t := range tuples {
		if len(t) != arity+len(args) {
			continue // foreign-arity tuple: not this plan's (defensive)
		}
		match := true
		for i, a := range args {
			if t[arity+i] != a {
				match = false
				break
			}
		}
		if match {
			out = append(out, t[:arity:arity])
		}
	}
	return out
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	memoHits, memoMisses := e.memo.Stats()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Hits:               e.hits,
		Misses:             e.misses,
		Coalesced:          e.coalesced,
		Evictions:          e.evictions,
		CacheLen:           e.cache.len(),
		MemoHits:           memoHits,
		MemoMisses:         memoMisses,
		CompileTime:        e.compileTime,
		ExecCount:          e.execCount.Load(),
		ExecTime:           time.Duration(e.execTime.Load()),
		FixpointRuns:       e.fixpointRuns.Load(),
		FixpointIterations: e.fixpointIters.Load(),
		FixpointDerived:    e.fixpointDrvd.Load(),
		UpdateBatches:      e.updBatches.Load(),
		UpdateTuples:       e.updTuples.Load(),
		UpdateDeleted:      e.updDeleted.Load(),
		DeltaDerived:       e.updDerived.Load(),
		DeltaRetracted:     e.updRetracted.Load(),
		MaintainTime:       time.Duration(e.maintainTime.Load()),
		Admission:          e.admit.snapshot(),
		Panics:             e.panics.Load(),
		PerStrategy:        make(map[Strategy]StrategyStats, len(e.perStrategy)),
	}
	if e.dur != nil {
		st.Durable = e.dur.stats()
	}
	for s, agg := range e.perStrategy {
		st.PerStrategy[s] = *agg
	}
	return st
}

// buildPlan runs the configured rewriting algorithm over the template's
// plan query — the canonical form with the placeholders appended to the
// head as distinguished variables — so the resulting plan depends only on
// the template fingerprint, never on which α-variant or constant
// instantiation happened to arrive first. Every rewriting strategy
// re-asserts the query's comparisons on a candidate whose body exposes their
// terms: a comparison the views do not enforce would otherwise leave no
// sound rewriting. It executes outside the engine mutex; only the counter
// update at the end takes it.
func (e *Engine) buildPlan(tmpl *cq.Template, fp string) (*Plan, error) {
	start := time.Now()
	qc := tmpl.PlanQuery()
	p := &Plan{
		Fingerprint: fp,
		Strategy:    e.opt.Strategy,
		Chosen:      e.opt.Strategy,
		Params:      tmpl.Params,
		Arity:       len(tmpl.Query.Head.Args),
		AnswerPred:  qc.Name(),
	}
	switch e.opt.Strategy {
	case EquivalentFirst, Auto:
		if !e.planEquivalent(p, qc) {
			if err := e.planMiniCon(p, qc); err != nil {
				return nil, err
			}
			p.Chosen = MiniCon
		}
	case Bucket:
		u, _, err := bucket.Rewrite(qc, e.views, bucket.Options{KeepComparisons: true})
		if err != nil {
			return nil, err
		}
		p.Kind = PlanMaxContained
		p.Union = u
		p.Estimate = datalog.EstimateUnion(u, tmpl.Params, e.catalog)
	case MiniCon:
		if err := e.planMiniCon(p, qc); err != nil {
			return nil, err
		}
	case InverseRules:
		prog, err := inverserules.Program(qc, e.viewDefs)
		if err != nil {
			return nil, err
		}
		p.Kind = PlanInverseProgram
		p.Program = prog
	}
	p.BuildTime = time.Since(start)

	// Lower the rewriting to its physical form once, under the frozen
	// database's statistics, with the template placeholders as parameter
	// slots; every execution of the cached plan binds and reuses it.
	compileStart := time.Now()
	switch p.Kind {
	case PlanEquivalent:
		p.Compiled = datalog.CompileParams(e.execQuery(p, p.Rewriting.Query), p.Params, e.catalog)
	case PlanMaxContained:
		p.CompiledUnion = make([]*datalog.CompiledPlan, p.Union.Len())
		for i, m := range p.Union.Queries {
			p.CompiledUnion[i] = datalog.CompileParams(e.execQuery(p, m), p.Params, e.catalog)
		}
	case PlanInverseProgram:
		cp, err := datalog.CompileProgram(p.Program, e.catalog)
		if err != nil {
			return nil, err
		}
		p.CompiledProgram = cp
	}
	p.CompileTime = time.Since(compileStart)

	e.mu.Lock()
	agg := e.strategyAggLocked(p.Chosen)
	agg.Plans++
	agg.PlanTime += p.BuildTime
	e.compileTime += p.CompileTime
	e.mu.Unlock()
	return p, nil
}

// execQuery shapes a rewriting for compilation: the planning head carried
// the template placeholders as extra distinguished columns (so rewritings
// expose them); execution binds them as parameters instead, so the
// compiled head is truncated back to the answer arity.
func (e *Engine) execQuery(p *Plan, q *cq.Query) *cq.Query {
	if len(p.Params) == 0 {
		return q
	}
	return &cq.Query{
		Head:        cq.Atom{Pred: q.Head.Pred, Args: q.Head.Args[:p.Arity:p.Arity]},
		Body:        q.Body,
		Comparisons: q.Comparisons,
	}
}

// planEquivalent searches for equivalent rewritings of qc — the first one
// found, or under Auto up to autoMaxResults of them — and keeps the
// cheapest estimate. It reports whether any rewriting was found.
func (e *Engine) planEquivalent(p *Plan, qc *cq.Query) bool {
	r := core.NewRewriter(e.views)
	r.Opt.AllowPartial = e.opt.AllowPartial
	r.Opt.KeepComparisons = true
	if e.opt.Strategy == Auto {
		r.Opt.MaxResults = autoMaxResults
	}
	r.Memo = e.memo
	results, _ := r.Rewrite(qc)
	if len(results) == 0 {
		return false
	}
	candidates := make([]*cq.Query, len(results))
	for i, rw := range results {
		candidates[i] = rw.Query
	}
	best, ests := datalog.Choose(candidates, p.Params, e.catalog)
	p.Kind = PlanEquivalent
	p.Rewriting = results[best]
	p.Estimate = ests[best]
	p.Chosen = EquivalentFirst
	return true
}

// planMiniCon builds the MiniCon maximally-contained rewriting of qc. Its
// candidates are verified only where comparisons make MCD formation
// unsound: in qc or in a view.
func (e *Engine) planMiniCon(p *Plan, qc *cq.Query) error {
	verify := e.compViews || len(qc.Comparisons) > 0
	u, _, err := minicon.Rewrite(qc, e.views, minicon.Options{VerifyCandidates: verify, KeepComparisons: true})
	if err != nil {
		return err
	}
	p.Kind = PlanMaxContained
	p.Union = u
	p.Estimate = datalog.EstimateUnion(u, p.Params, e.catalog)
	return nil
}

// strategyAggLocked returns the per-strategy aggregate for s, creating it
// on first use. Callers must hold e.mu.
func (e *Engine) strategyAggLocked(s Strategy) *StrategyStats {
	agg := e.perStrategy[s]
	if agg == nil {
		agg = &StrategyStats{}
		e.perStrategy[s] = agg
	}
	return agg
}
