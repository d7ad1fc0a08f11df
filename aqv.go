// Package aqv is the public API of this library — a reproduction of
// "Answering Queries Using Views" (Levy, Mendelzon, Sagiv, Srivastava,
// PODS 1995) together with the algorithms the paper founded: equivalent
// rewriting search, and the Bucket, MiniCon and inverse-rules procedures
// for maximally-contained rewritings.
//
// The facade re-exports the stable parts of the internal packages so that
// applications need a single import:
//
//	import aqv "repro"
//
//	q := aqv.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
//	vs := aqv.MustNewViewSet(aqv.MustParseQuery("v(A,B) :- r(A,C), s(C,B)"))
//	rw := aqv.NewRewriter(vs).RewriteOne(q)  // q(X,Y) :- v(X,Y).
//
// Applications that answer many queries over one view set should use the
// serving engine instead of calling the algorithms directly: it caches
// rewriting plans in a bounded LRU keyed by query *templates* — the
// canonical form with constants abstracted to placeholders — coalesces
// concurrent identical requests, and is safe for parallel use:
//
//	eng, _ := aqv.NewEngineFromBase(base, views, aqv.EngineOptions{})
//	answers, _ := eng.Answer(q) // α-equivalent and constant-varying queries hit the plan cache
//
// Point-lookup streams should prepare once and execute per binding:
//
//	pq, _ := eng.Prepare(aqv.MustParseQuery("q(Y) :- r(k0,Z), s(Z,Y)"))
//	for _, key := range keys {
//		answers, _ := pq.Exec(key) // one compiled plan, one index probe per call
//	}
//
// Answer itself is a thin prepare-once-exec wrapper, so plain callers get
// template caching for free. With EngineOptions.Strategy == StrategyAuto
// the engine plans like StrategyEquivalentFirst but keeps the cheapest of a
// few equivalent rewritings by cost estimate instead of the first found,
// falling back to MiniCon when none exists.
//
// With EngineOptions.LiveUpdates the engine additionally accepts batches of
// base-fact inserts and deletions (Engine.ApplyUpdate, either side nil),
// incrementally maintaining every view extent per batch instead of
// freezing the database at construction — deletions by delete-rederive,
// for flat view sets and recursive programs alike; cached plans survive
// updates, and concurrent readers see torn-free snapshots.
//
// See examples/ for complete programs and DESIGN.md for the system map.
package aqv

import (
	"repro/internal/bucket"
	"repro/internal/certain"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/inverserules"
	"repro/internal/ivm"
	"repro/internal/minicon"
	"repro/internal/storage"
)

// Query model (see internal/cq).
type (
	// Query is a conjunctive query with optional comparison predicates.
	Query = cq.Query
	// Atom is a relational atom.
	Atom = cq.Atom
	// Term is a variable or constant.
	Term = cq.Term
	// Comparison is an arithmetic comparison predicate.
	Comparison = cq.Comparison
	// Union is a union of conjunctive queries.
	Union = cq.Union
	// Subst maps variable names to terms.
	Subst = cq.Subst
	// Program is a parsed set of rules and facts.
	Program = cq.Program
)

// Parsing.
var (
	// ParseQuery parses one rule in datalog syntax.
	ParseQuery = cq.ParseQuery
	// MustParseQuery panics on parse errors; for literals.
	MustParseQuery = cq.MustParseQuery
	// ParseProgram parses rules and facts.
	ParseProgram = cq.ParseProgram
	// ParseViews parses a rules-only program.
	ParseViews = cq.ParseViews
	// Var builds a variable term.
	Var = cq.Var
	// Const builds a constant term.
	Const = cq.Const
	// NewAtom builds an atom.
	NewAtom = cq.NewAtom
	// NewQuery builds a query from head and body.
	NewQuery = cq.NewQuery
	// NewUnion builds a union of queries.
	NewUnion = cq.NewUnion
)

// Canonical forms, templates and fingerprints (see internal/cq).
type (
	// QueryTemplate is a canonical query with constants abstracted to
	// ordered placeholders — the unit the engine caches plans per.
	QueryTemplate = cq.Template
)

var (
	// Canonicalize returns the canonical α-renamed, subgoal-sorted form.
	Canonicalize = cq.Canonicalize
	// CanonicalizeUnion canonicalises a union of conjunctive queries.
	CanonicalizeUnion = cq.CanonicalizeUnion
	// Fingerprint returns a cache key shared by α-equivalent queries.
	Fingerprint = cq.Fingerprint
	// CanonicalizeTemplate abstracts a query's constants to placeholders
	// and returns the canonical template plus the extracted binding.
	CanonicalizeTemplate = cq.CanonicalizeTemplate
	// TemplateFingerprint returns the template cache key of a query:
	// shared across α-variants and constant instantiations alike.
	TemplateFingerprint = cq.TemplateFingerprint
)

// Containment, equivalence and minimisation (see internal/containment).
var (
	// Contained reports q2 ⊑ q1 (exact).
	Contained = containment.Contained
	// ContainedSound is the fast sound test under comparisons.
	ContainedSound = containment.ContainedSound
	// Equivalent reports q1 ≡ q2.
	Equivalent = containment.Equivalent
	// Minimize returns the core of a query.
	Minimize = containment.Minimize
	// ContainedInUnion reports q ⊑ u.
	ContainedInUnion = containment.ContainedInUnion
	// UnionContained reports u ⊑ q.
	UnionContained = containment.UnionContained
	// MinimizeUnion prunes subsumed members and minimises the rest.
	MinimizeUnion = containment.MinimizeUnion
)

// Equivalent rewritings — the paper's core (see internal/core).
type (
	// ViewSet is a validated, named collection of view definitions.
	ViewSet = core.ViewSet
	// Rewriter searches for equivalent rewritings.
	Rewriter = core.Rewriter
	// Rewriting is a verified rewriting with its unfolding.
	Rewriting = core.Rewriting
	// RewriteOptions configures the rewriting search.
	RewriteOptions = core.Options
	// RewriteStats reports search work.
	RewriteStats = core.Stats
)

var (
	// NewViewSet validates and indexes views.
	NewViewSet = core.NewViewSet
	// MustNewViewSet panics on invalid views.
	MustNewViewSet = core.MustNewViewSet
	// NewRewriter builds a rewriter with default options.
	NewRewriter = core.NewRewriter
	// Expand unfolds view atoms into their definitions.
	Expand = core.Expand
	// VerifyRewriting checks a candidate rewriting from scratch.
	VerifyRewriting = core.VerifyRewriting
	// Usable reports whether a view has a valid application to the query
	// (the paper's R3); a view it rejects may still occur in an
	// equivalent rewriting, which the rewriter then finds.
	Usable = core.Usable
)

// AllRewritings asks Rewriter.Rewrite for exhaustive enumeration.
const AllRewritings = core.AllRewritings

// Maximally-contained rewriting algorithms.
type (
	// BucketOptions configures the Bucket algorithm.
	BucketOptions = bucket.Options
	// BucketStats reports Bucket work.
	BucketStats = bucket.Stats
	// MiniConOptions configures MiniCon.
	MiniConOptions = minicon.Options
	// MiniConStats reports MiniCon work.
	MiniConStats = minicon.Stats
)

var (
	// BucketRewrite runs the Bucket algorithm.
	BucketRewrite = bucket.Rewrite
	// MiniConRewrite runs the MiniCon algorithm.
	MiniConRewrite = minicon.Rewrite
	// InverseRulesProgram builds the Skolemised datalog program.
	InverseRulesProgram = inverserules.Program
	// InverseRulesCompile builds and compiles the inverse-rules program
	// once; evaluate the returned CompiledProgram per request.
	InverseRulesCompile = inverserules.Compile
	// InverseRulesAnswer answers a query over view extents via inverse
	// rules.
	InverseRulesAnswer = inverserules.Answer
)

// Storage and evaluation (see internal/storage, internal/datalog).
type (
	// Database is an in-memory relational database. A tuple it stores is
	// never written: Insert stores a copy of the caller's tuple, a Clone
	// shares the stored tuples, and the tuples Relation.Tuples returns may
	// be kept but must not be modified.
	Database = storage.Database
	// Relation is a named set of tuples.
	Relation = storage.Relation
	// Tuple is a row of constant values.
	Tuple = storage.Tuple
)

var (
	// NewDatabase creates an empty database.
	NewDatabase = storage.NewDatabase
	// ReadDatabase parses datalog facts into a new database.
	ReadDatabase = storage.ReadDatabase
	// EvalQuery evaluates a conjunctive query (compile once, run once).
	EvalQuery = datalog.EvalQuery
	// EvalUnion evaluates a union of conjunctive queries.
	EvalUnion = datalog.EvalUnion
	// CompileQuery lowers a conjunctive query to a reusable slot-based
	// physical plan; see CompiledPlan.
	CompileQuery = datalog.Compile
	// CompileQueryParams is CompileQuery for a parameterized plan: the
	// named variables become parameter slots bound per execution
	// (CompiledPlan.EvalParallelUnsortedWith), so one plan serves every
	// constant binding.
	CompileQueryParams = datalog.CompileParams
	// MaterializeViews evaluates views over a base database into a
	// view-extent database, one query evaluation per view. It is a one-shot
	// helper: engines build their state through NewMaintainer instead.
	MaterializeViews = datalog.MaterializeViews
	// TuplesEqual compares answer sets regardless of order.
	TuplesEqual = storage.TuplesEqual
	// SortTuples orders a tuple slice lexicographically in place.
	SortTuples = storage.SortTuples
	// CertainAnswers drops tuples containing Skolem values and sorts the
	// rest — the certain-answer set of an inverse-rules answer relation.
	CertainAnswers = datalog.CertainAnswers
)

// CompiledPlan is an immutable slot-based physical plan: compile a query
// once with CompileQuery, then run it with EvalParallelUnsortedWith (or
// EvalIntoCtx, which adds the answers into a row set) any number of times
// (concurrently, over a served database: Database.BuildIndexes) without
// re-planning; each run evaluates on its caller's goroutine, ignoring
// EvalParallelUnsortedWith's workers argument. SortTuples orders the answers. The serving engine caches one per query template.
type CompiledPlan = datalog.CompiledPlan

// CompiledProgram is the compiled semi-naive form of a datalog Program:
// every rule lowered to slot plans with per-occurrence delta variants.
// Compile once with CompileProgram (or InverseRulesCompile), then Eval or
// EvalRelation (EvalRelationCtx) it any number of times concurrently.
type CompiledProgram = datalog.CompiledProgram

// FixpointStats reports the work of one semi-naive fixpoint evaluation.
type FixpointStats = datalog.FixpointStats

// CompileProgram lowers a datalog program to its compiled semi-naive form
// under catalog statistics (nil is allowed).
var CompileProgram = datalog.CompileProgram

// CompileProgramIVM is CompileProgram plus one delta plan per EDB body
// occurrence, enabling CompiledProgram.ApplyUpdatesCtx: base inserts and
// deletes propagate into already materialized derived relations without
// re-running the fixpoint.
var CompileProgramIVM = datalog.CompileProgramIVM

// Incremental view maintenance (see internal/ivm). A Maintainer keeps
// materialized view extents consistent under base-fact inserts, deletions
// and mixed batches by running compiled delta plans — insertions propagate
// monotonically, deletions through delete-rederive — instead of
// re-materializing. The live engine (EngineOptions.LiveUpdates) embeds
// one; use it directly to maintain extents without the serving layer.
type (
	// Maintainer delta-maintains view extents over a base database.
	Maintainer = ivm.Maintainer
	// MaintainerOptions is NewMaintainer's options struct. It has no
	// fields: maintenance runs on the calling goroutine.
	MaintainerOptions = ivm.Options
	// MaintainerBatch reports one applied update batch: the base tuples
	// actually inserted and deleted, and the number of extent tuples
	// retracted for good. It is the datalog layer's update result itself,
	// not a copy, and is valid until the maintainer's next batch, like the
	// journal it carries.
	MaintainerBatch = ivm.BatchResult
)

// NewMaintainer materializes the views over base once and returns a
// Maintainer that keeps the extents fresh under ApplyUpdate (batches of
// inserts and deletes, either side nil). It indexes the columns the view
// plans probe on its own copy of base, never on base itself, and it is the
// function every engine builds its served state with: Maintainer.Database
// is base plus extents, exactly what NewEngineFromBase serves when it can
// plan partial rewritings (the extents alone otherwise).
var NewMaintainer = ivm.New

// ErrEngineNotLive reports a mutation (Engine.ApplyUpdate) on an engine
// built without EngineOptions.LiveUpdates.
var ErrEngineNotLive = engine.ErrNotLive

// Resource governance (see internal/engine and internal/datalog): typed
// errors, per-request budgets and admission control for the serving
// boundary. All are opt-in; a request passed no budget on an engine with
// MaxConcurrent 0 behaves exactly as before.
type (
	// EngineBudget bounds one request: a wall-clock deadline plus caps on
	// result rows, derived tuples and fixpoint rounds. Pass one per call
	// (AnswerBudget, ExecBudget, ApplyUpdateBudget); the other entry points
	// run unbudgeted.
	EngineBudget = engine.Budget
	// AdmissionStats counts admission-control outcomes (EngineStats.Admission).
	AdmissionStats = engine.AdmissionStats
	// OverloadedError is the concrete load-shed error; its RetryAfter field
	// hints when to retry. Matches ErrEngineOverloaded under errors.Is.
	OverloadedError = engine.OverloadedError
	// InternalError is the concrete panic-isolation error, carrying the
	// recovered panic value and stack. Matches ErrEngineInternal.
	InternalError = engine.InternalError
	// QueryError wraps an evaluation failure with the partial-progress
	// fixpoint stats at the moment the run stopped.
	QueryError = engine.QueryError
	// EvalLimits bounds one compiled-executor evaluation (the datalog-level
	// form of EngineBudget, for callers using CompiledPlan/CompiledProgram
	// Ctx methods directly).
	EvalLimits = datalog.Limits
	// ArityError reports a tuple or request of the wrong width at the
	// storage boundary.
	ArityError = storage.ArityError
)

var (
	// ErrCanceled reports that a request's context was canceled or its
	// deadline expired mid-evaluation. Match with errors.Is.
	ErrCanceled = engine.ErrCanceled
	// ErrBudgetExceeded reports that a request exhausted an explicit
	// resource budget. Match with errors.Is.
	ErrBudgetExceeded = engine.ErrBudgetExceeded
	// ErrEngineOverloaded reports that admission control shed the request.
	ErrEngineOverloaded = engine.ErrOverloaded
	// ErrEngineInternal reports an evaluation panic converted to an error
	// at the engine boundary.
	ErrEngineInternal = engine.ErrInternal
	// ErrArityMismatch reports a caller-supplied arity error at the serving
	// boundary (wrong Exec argument count).
	ErrArityMismatch = engine.ErrArityMismatch
	// ErrEngineDurability reports a write-ahead-log failure on a durable
	// engine (EngineOptions.DataDir): the failed batch was not published,
	// further mutations are refused fail-stop, reads keep serving.
	ErrEngineDurability = engine.ErrDurability
)

// Certain answers (see internal/certain).
type (
	// CertainReport summarises a certain-answer comparison.
	CertainReport = certain.Report
)

var (
	// CertainViaMiniCon computes certain answers via the MiniCon MCR.
	CertainViaMiniCon = certain.ViaMiniCon
	// CertainViaInverseRules computes certain answers via inverse rules.
	CertainViaInverseRules = certain.ViaInverseRules
	// CertainCompare cross-checks both routes against direct evaluation.
	CertainCompare = certain.Compare
)

// Minimal rewritings and shortening analysis (paper R4).
type (
	// Shortening reports how much views can shorten a query.
	Shortening = core.Shortening
)

var (
	// LocallyMinimal reports whether a rewriting can lose no subgoal.
	LocallyMinimal = core.LocallyMinimal
	// MinimizeRewriting removes redundant subgoals from a rewriting.
	MinimizeRewriting = core.MinimizeRewriting
	// GloballyMinimal filters a result set to the shortest rewritings.
	GloballyMinimal = core.GloballyMinimal
	// BestShortening reports the best achievable subgoal reduction.
	BestShortening = core.BestShortening
)

// Serving engine: concurrent, plan-caching query answering over all
// rewriting algorithms (see internal/engine). This is the primary entry
// point for applications that answer many queries over one view set.
type (
	// Engine is the concurrent plan-caching query answerer.
	Engine = engine.Engine
	// EngineOptions configures an Engine.
	EngineOptions = engine.Options
	// EngineStats is a snapshot of engine counters.
	EngineStats = engine.Stats
	// EnginePlan is a cached rewriting plan for one query template.
	EnginePlan = engine.Plan
	// PreparedQuery is the handle Engine.Prepare returns: a cached
	// template plan executable under any constant binding (Exec).
	PreparedQuery = engine.PreparedQuery
	// Strategy selects the rewriting algorithm an Engine plans with.
	Strategy = engine.Strategy
	// StrategyStats aggregates planning work per strategy.
	StrategyStats = engine.StrategyStats
	// ContainmentMemo caches containment decisions across checks.
	ContainmentMemo = containment.Memo
)

// Engine strategies.
const (
	// StrategyEquivalentFirst tries an equivalent rewriting, then MiniCon.
	StrategyEquivalentFirst = engine.EquivalentFirst
	// StrategyBucket plans with the Bucket algorithm.
	StrategyBucket = engine.Bucket
	// StrategyMiniCon plans with the MiniCon algorithm.
	StrategyMiniCon = engine.MiniCon
	// StrategyInverseRules compiles an inverse-rules program.
	StrategyInverseRules = engine.InverseRules
	// StrategyAuto takes the equivalent rewriting the cost model estimates
	// cheapest, else the MiniCon rewriting, recording the choice in
	// EnginePlan.Chosen and EngineStats.PerStrategy.
	StrategyAuto = engine.Auto
)

var (
	// NewEngineFromBase, the one Engine constructor, materialises the
	// views over base data through NewMaintainer (or recovers them under
	// EngineOptions.DataDir) and builds an Engine serving from the result;
	// base is only read, and the engine shares its tables until either side
	// writes one, so the caller may go on writing base without changing an
	// answer. Static, live and durable engines serve the same database,
	// whatever the strategy: the view extents alone, or base plus extents
	// under EngineOptions.AllowPartial with StrategyEquivalentFirst or
	// StrategyAuto, the strategies that plan partial rewritings.
	NewEngineFromBase = engine.NewFromBase
	// ParseStrategy resolves a strategy name (CLI aliases accepted).
	ParseStrategy = engine.ParseStrategy
	// EngineStrategies lists the supported strategies.
	EngineStrategies = engine.Strategies
	// NewContainmentMemo returns an empty containment memo, shareable by
	// concurrent Rewriters via the Rewriter.Memo field.
	NewContainmentMemo = containment.NewMemo
)

// Cost-based plan choice: statistics from internal/cost, priced by the
// compiler in internal/datalog, so an estimate walks exactly the join
// order CompileQueryParams gives the plan.
type (
	// Catalog holds relation statistics for cost estimation.
	Catalog = cost.Catalog
	// CostEstimate is the estimated work of evaluating one query.
	CostEstimate = cost.Estimate
)

// NewCatalog derives statistics from a database: row counts, and distinct
// counts read off its built column indexes, or counted by a throwaway
// index, which is kept nowhere, for a column that has none.
func NewCatalog(db *Database) *Catalog { return cost.NewCatalog(db) }

var (
	// NewRowCatalog derives cardinalities only (cheap; no distinct counts).
	NewRowCatalog = cost.NewRowCatalog
	// EstimateQuery costs a conjunctive query in the join order its
	// compiled plan runs, with the named parameter variables (nil for
	// none) bound before the first join step.
	EstimateQuery = datalog.Estimate
	// ChoosePlan returns the cheapest candidate under EstimateQuery, with
	// every candidate's estimate.
	ChoosePlan = datalog.Choose
)
