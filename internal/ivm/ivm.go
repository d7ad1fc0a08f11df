// Package ivm incrementally maintains materialized view extents under
// base-fact inserts, deletions, and mixed update batches. A Maintainer
// maintains one database holding the base relations and every view extent
// (Database); each view definition is compiled once into per-EDB-occurrence
// delta plans (datalog.CompileProgramIVM), and an update batch runs one
// semi-naive propagation round per affected occurrence instead of
// re-materializing any extent — work is proportional to the consequences
// of the batch, not to the size of the database.
//
// There is one write verb, ApplyUpdate (ApplyUpdateCtx under a context and
// limits), and it is datalog.ApplyUpdatesCtx over the maintainer's database:
// inserts propagate monotonically; deletions are non-monotone and take
// DRed (delete-and-rederive): the extent tuples a deletion might have
// unsupported are removed, and those with a surviving derivation are put
// back, so an extent tuple is retracted exactly when its last derivation
// goes. No state is kept between batches. A batch applies its deletions
// first and is atomic whatever it holds.
//
// A view's extent may also hold facts given for it directly: a base
// relation named like view v at New. Those facts move to a base relation
// of the maintainer's own, GivenRelation(v), read by one more rule,
// v(X̄) :- GivenRelation(v)(X̄), so a deletion keeps them the way it keeps
// any tuple with a surviving derivation. Writes to that relation are
// refused as writes to v are; it is persisted and recovered like any
// other base relation.
//
// The Maintainer is the engine's mutation path. The engine does not give it
// extents of its own: before each batch it binds the maintained database to
// the relations of its inactive serving side (storage.Database.Bind), so
// Engine.ApplyUpdate maintains that side in place, and replays the
// returned batch's journal onto the other side only. The maintainer keeps privately
// just the relations no side serves. It is equally usable standalone for
// applications that keep extents fresh without the serving layer.
//
// A Maintainer is single-writer: calls to ApplyUpdate must be serialized by
// the caller (the engine holds an update mutex). Reads of the maintained
// database may not overlap an ApplyUpdate call.
package ivm

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// Options configures a Maintainer. It has no fields: propagation runs on
// the calling goroutine. New keeps taking it so that existing callers
// compile.
type Options struct{}

// Maintainer delta-maintains the extents of a view set over a base
// database.
type Maintainer struct {
	views     []*cq.Query
	viewNames map[string]bool
	cp        *datalog.CompiledProgram
	db        *storage.Database // base relations + maintained extents; see Database
}

// BatchResult reports one applied update batch: the base tuples actually
// inserted and deleted, the number of extent tuples retracted for good,
// and the batch's journal, which records every change to the maintained
// database, extents included (storage.Journal.Replay mirrors it onto
// another database, removals first). It is valid until the database's
// next batch, like its journal, which keeps the base lists.
type BatchResult = datalog.UpdateResult

// givenSuffix turns a view name into the name of the relation holding the
// facts given for the view. '@' is outside cq's identifier grammar, so no
// query, view or parsed fact can name the relation.
const givenSuffix = "@given"

// GivenRelation names the maintainer's base relation holding the facts
// given for view directly.
func GivenRelation(view string) string { return view + givenSuffix }

// viewProgram validates a view set and turns it into the datalog program
// the maintainer compiles — one rule per view, plus v(X̄) :- given(X̄) for
// each view v whose given relation db holds facts — and the set of view
// names.
func viewProgram(views []*cq.Query, db *storage.Database) (*datalog.Program, map[string]bool, error) {
	if len(views) == 0 {
		return nil, nil, fmt.Errorf("ivm: empty view set")
	}
	prog := &datalog.Program{}
	names := make(map[string]bool, len(views))
	for _, v := range views {
		if err := v.Validate(); err != nil {
			return nil, nil, fmt.Errorf("ivm: view %s: %w", v.Name(), err)
		}
		names[v.Name()] = true
		prog.Rules = append(prog.Rules, datalog.RuleFromQuery(v))
		given := db.Relation(GivenRelation(v.Name()))
		if given == nil || given.Len() == 0 {
			continue
		}
		if given.Arity() != v.Arity() {
			return nil, nil, fmt.Errorf("ivm: facts given for view %s: %w", v.Name(), &storage.ArityError{Pred: v.Name(), Want: v.Arity(), Got: given.Arity()})
		}
		vars := make([]cq.Term, v.Arity())
		for i := range vars {
			vars[i] = cq.Var(fmt.Sprintf("X%d", i))
		}
		prog.Rules = append(prog.Rules, datalog.Rule{
			HeadPred: v.Name(),
			Head:     datalog.PlainHead(cq.NewAtom(v.Name(), vars...)),
			Body:     []cq.Atom{cq.NewAtom(given.Name(), vars...)},
		})
	}
	return prog, names, nil
}

// withGiven is base as the maintainer materializes it: a relation named
// like a view holds facts given for that view, and moves — joined with any
// given relation base holds already, as a stale rebuild recovers it — to
// the view's given relation. Every other relation is base's own; base is
// not changed.
func withGiven(base *storage.Database, views []*cq.Query) (*storage.Database, error) {
	in := storage.NewDatabase()
	in.Bind(base)
	for _, v := range views {
		rel := base.Relation(v.Name())
		if rel == nil {
			continue
		}
		in.Drop(v.Name())
		g := GivenRelation(v.Name())
		prior := base.Relation(g)
		in.Drop(g)
		for _, src := range []*storage.Relation{rel, prior} {
			if src == nil {
				continue
			}
			for _, t := range src.Tuples() {
				if err := in.Insert(g, t); err != nil {
					return nil, fmt.Errorf("ivm: facts given for view %s: %w", v.Name(), err)
				}
			}
		}
	}
	return in, nil
}

// New builds a Maintainer: it materializes every view over base once (the
// last full evaluation the system ever pays for these views) into a served
// database (storage.Database.BuildIndexes), whose columns are indexed at
// their first probe, for indexed delta propagation and serving. The
// materialization runs on a served clone of base (CompiledProgram.Eval),
// so an unindexed base is joined by index probes, not nested scans, and
// only the columns something probes are ever indexed. base is not mutated:
// the maintainer's base relations share its tables until either side
// writes one, when that relation is copied, and a relation of base that is
// not served gains no index. It is the one way the engine first builds
// served state. A relation of base named like a view holds facts given for
// it (see the package comment). The planner's statistics count only the
// predicates the view program reads.
func New(base *storage.Database, views []*cq.Query, opt Options) (*Maintainer, error) {
	if base == nil {
		base = storage.NewDatabase()
	}
	in, err := withGiven(base, views)
	if err != nil {
		return nil, err
	}
	prog, names, err := viewProgram(views, in)
	if err != nil {
		return nil, err
	}
	cp, err := datalog.CompileProgramIVM(prog, cost.NewCatalog(in, prog.Predicates()...))
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	db, err := cp.Eval(in)
	if err != nil {
		return nil, fmt.Errorf("ivm: materialize: %w", err)
	}
	return &Maintainer{views: views, viewNames: names, cp: cp, db: db}, nil
}

// NewFromMaterialized rebuilds a Maintainer around an already-materialized
// database — base relations plus every view extent, as recovered from a
// durable snapshot — skipping the full evaluation New pays. The given
// relations db holds are read as New reads them. db is adopted as the
// maintenance state: the caller must not mutate it afterwards.
func NewFromMaterialized(db *storage.Database, views []*cq.Query) (*Maintainer, error) {
	if db == nil {
		db = storage.NewDatabase()
	}
	prog, names, err := viewProgram(views, db)
	if err != nil {
		return nil, err
	}
	// An extent that materialized empty may be absent from the snapshot
	// reader's database; the maintainer needs the relation to exist so
	// delta propagation has somewhere to land.
	for _, v := range views {
		if db.Relation(v.Name()) == nil {
			if _, err := db.Ensure(v.Name(), v.Arity()); err != nil {
				return nil, fmt.Errorf("ivm: %w", err)
			}
		}
	}
	db.BuildIndexes()
	cp, err := datalog.CompileProgramIVM(prog, cost.NewCatalog(db, prog.Predicates()...))
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	return &Maintainer{views: views, viewNames: names, cp: cp, db: db}, nil
}

// IsView reports whether pred names a maintained view extent.
func (m *Maintainer) IsView(pred string) bool { return m.viewNames[pred] }

// Database returns the maintained database: base relations plus every view
// extent, served, with the indexes probes built maintained across batches.
// It is the live maintenance state — callers must not read it concurrently
// with ApplyUpdate, and may change it only by binding relations of equal
// contents into it (storage.Database.Bind), which the next batch then
// maintains in place: the engine binds it to a serving side that way.
func (m *Maintainer) Database() *storage.Database { return m.db }

// ApplyUpdate applies a batch of base-fact changes — deletes and inserts,
// each across any number of predicates, either possibly nil — and
// delta-maintains every extent: deletes are removed (and their extent
// consequences retracted) first, then inserts propagate. The batch is
// validated before anything is mutated, and view predicates and their
// given relations are rejected on both sides. Deleting absent tuples and
// inserting present ones are no-ops that propagate nothing.
func (m *Maintainer) ApplyUpdate(inserts, deletes map[string][]storage.Tuple) (*BatchResult, error) {
	return m.ApplyUpdateCtx(context.Background(), inserts, deletes, datalog.Limits{})
}

// ApplyUpdateCtx is ApplyUpdate under a cancellation context and evaluation
// limits. The batch is atomic: on any error — validation, cancellation
// (datalog.ErrCanceled), or a budget trip (datalog.ErrBudgetExceeded), even
// mid-retraction — datalog.ApplyUpdatesCtx rolls its journal back and the
// maintained database is exactly its pre-batch state, so an aborted batch
// can simply be retried. A panic during propagation also rolls back before
// being re-raised to the caller's recover guard.
func (m *Maintainer) ApplyUpdateCtx(ctx context.Context, inserts, deletes map[string][]storage.Tuple, lim datalog.Limits) (*BatchResult, error) {
	for _, batch := range []map[string][]storage.Tuple{inserts, deletes} {
		for pred := range batch {
			if view, ok := strings.CutSuffix(pred, givenSuffix); ok {
				return nil, fmt.Errorf("ivm: cannot write relation %s: it holds the facts given for view %s", pred, view)
			}
		}
	}
	res, err := m.cp.ApplyUpdatesCtx(ctx, m.db, inserts, deletes, lim)
	if err != nil {
		return nil, fmt.Errorf("ivm: %w", err)
	}
	return res, nil
}
