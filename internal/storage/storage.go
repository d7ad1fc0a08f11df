// Package storage provides the in-memory relational substrate used to
// evaluate queries and rewritings: relations of string-valued tuples with
// set semantics, lazily built per-column hash indexes, and a database
// keyed by predicate name.
//
// A served relation indexes the columns something probes, and only those.
// BuildIndexes marks a relation served; nothing is built then. The first
// probe of a column (ProbeIndex, Lookup) builds its index under that
// column's build lock and publishes it with one atomic store, so any
// number of goroutines may probe a served relation at once: each sees no
// index or a complete one, and the column is built once. The list of
// column indexes is one of the tables clones share (below), so an index
// built through one holder serves every holder, and a build is never
// repeated for a copy nobody has written. A relation that is not served —
// a caller's, a fixpoint's scratch — is never indexed by a probe: the
// executor scans it, and only an explicit build (BuildColumnIndex, Lookup)
// indexes it, a write under the single-writer rule.
//
// A relation's indexes hold positions, not values. Its set index is a
// PosTable of tuple positions hashed from the columns, and a hash hit is
// confirmed by comparing columns: a tuple's identity is its columns, never
// a joined string, so two tuples whose Tuple.Key strings coincide — a
// value may contain the separator — are both kept. Each built
// column has a ColIndex: a PosTable of one position per distinct value,
// hashed by the value, from which a chain of positions links every tuple
// holding it. Neither keeps a copy of a tuple or of a value, and a copy of
// a relation copies both as they are, because positions do not change.
//
// A clone shares until it is written. Database.Clone hands each relation of
// the copy the source relation's tables themselves and counts both among
// the tables' holders; the first write to a relation that does not hold its
// tables alone copies them, so what nobody writes — a serving side before
// its first batch, the base a maintainer materialised from — is held once,
// and the last holder writes them in place.
//
// A stored tuple is never written. Once a relation holds a tuple — Insert's
// clone, or the tuple Adopt was handed — no code writes its columns, so
// whoever reads a stored tuple may keep and share it without a copy: both
// serving sides of a live engine hold one physical row, a relation that
// copies its shared tables copies only the array of tuples, and a rollback
// re-adopts the tuple it removed. What a relation may not store is a tuple
// someone else may still write — a caller's, or a window onto a buffer that
// is reused; Insert clones those, and a batch's inserts are copied into
// backing arrays of at most ChunkRows rows.
//
// Values are constant lexemes (see cq.Term); Skolem values produced by the
// inverse-rules algorithm live in the same domain as tagged strings and
// join by ordinary equality.
package storage

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cq"
)

// ArityError reports a tuple width (or declared arity) conflicting with a
// relation's schema — the typed error the Ensure methods return, so input
// from outside the process is rejected before it can reach Insert's
// invariant panic.
type ArityError struct {
	Pred string
	Want int
	Got  int
}

func (e *ArityError) Error() string {
	return fmt.Sprintf("storage: relation %s has arity %d, requested %d", e.Pred, e.Want, e.Got)
}

// Tuple is a row of constant values.
type Tuple []string

// ChunkRows bounds how many rows of one write share an allocation a stored
// row keeps alive. The wire decoder gives each run of up to ChunkRows rows
// of an array one string, and a batch's inserts are copied into one backing
// array per run of up to ChunkRows rows, so a stored row pins at most one
// chunk of its request — whose body may be 64 MiB — and never the rest.
const ChunkRows = 64

// Key returns the tuple's columns joined by 0x1f. Distinct tuples share a
// key when a value holds that byte, so nothing in the module decides
// membership by it; only bench/ calls it.
func (t Tuple) Key() string { return strings.Join(t, "\x1f") }

// Clone returns a copy of the tuple: the one way a tuple its owner may
// still write becomes one a relation can store (Relation.Insert). A stored
// tuple needs no clone to be shared, since it is never written.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Compare orders tuples lexicographically column by column without
// materialising keys, reporting -1, 0 or +1; SortTuples uses it so
// sorting an answer set allocates nothing.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := strings.Compare(t[i], o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	default:
		return 0
	}
}

// keySeed keys the tuple hash; it is fixed for the life of the process, so
// a cloned relation's table stays valid.
var keySeed = maphash.MakeSeed()

// hashTuple hashes t's columns to 32 bits, writing a separator between
// them; equal tuples hash alike, and a hit is confirmed by comparing
// columns.
func hashTuple(t Tuple) uint32 {
	var h maphash.Hash
	h.SetSeed(keySeed)
	for i, v := range t {
		if i > 0 {
			h.WriteByte(0x1f)
		}
		h.WriteString(v)
	}
	return uint32(h.Sum64())
}

// Relation is a named set of tuples of a fixed arity. Insertion order is
// preserved for deterministic iteration until the first Remove, which
// swap-fills the vacated position; duplicates — tuples equal column by
// column — are ignored. A column's index, once built, is maintained by
// every mutation until the relation is dropped; a served relation builds
// a column's index at its first probe (ProbeIndex).
//
// A relation's tables — the tuple array, the set index and the list of
// column indexes — may be shared with clones (Database.Clone) until they
// are written: holders counts the relations holding them, and every write
// by one of several holders first gives the relation tables of its own
// (own), so no write reaches a table another relation reads. A first
// probe is not a write: it fills an empty slot of the shared list, which
// every holder then reads.
type Relation struct {
	name   string
	arity  int
	served bool // BuildIndexes: a probe builds the column's index; copied by Clone
	tuples []Tuple
	set    PosTable // hashTuple -> position in tuples
	// indexes holds a slot per column, nil until a column is built or the
	// relation is served. Clones share the slots as they share the other
	// tables; a served relation's slots are held by served relations
	// alone, so an index a probe publishes is never seen by a relation
	// that is not served.
	indexes []colSlot
	// holders, while the tables above may be another relation's too,
	// counts the relations holding them, this one included; nil when they
	// were never shared or this relation copied them. The count is shared
	// by those relations and may only overstate: a holder that is dropped
	// unwritten is never taken off it. The pointer is atomic because Clone
	// sets it on its source, which other goroutines may be reading or
	// cloning at the same time.
	holders atomic.Pointer[atomic.Int32]
}

// colSlot is one column's place in a relation's list of column indexes:
// the index once built, and the lock a served relation's first probe of
// the column builds it under. A slot is published once, by an atomic
// store, and read by atomic loads, so a concurrent probe sees either no
// index or a complete one.
type colSlot struct {
	built atomic.Pointer[ColIndex]
	build sync.Mutex
}

// index returns column col's built index, or nil when there is none.
func (r *Relation) index(col int) *ColIndex {
	if col < 0 || col >= len(r.indexes) {
		return nil
	}
	return r.indexes[col].built.Load()
}

// shares reports whether a relation other than r may hold r's tables.
func (r *Relation) shares() bool {
	h := r.holders.Load()
	return h != nil && h.Load() > 1
}

// holderCount returns the count of the relations holding r's tables,
// starting it at one, r, if there is none yet.
func (r *Relation) holderCount() *atomic.Int32 {
	if h := r.holders.Load(); h != nil {
		return h
	}
	h := new(atomic.Int32)
	h.Store(1)
	if r.holders.CompareAndSwap(nil, h) {
		return h
	}
	return r.holders.Load()
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{name: name, arity: arity}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of distinct tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Insert adds a tuple, reporting whether it was new. It panics on an arity
// mismatch — callers validate arity at the Database boundary. Newness is
// decided by hashing the tuple and comparing columns along the set index's
// probe chain; the only allocation is the stored clone of t (plus growth
// of the tuple slice and the tables). The caller keeps t and may write it
// afterwards; the stored copy is the relation's tail (Tuples) and, like
// every stored tuple, is never written.
//
// Each built column index is maintained in place: the new position is
// prepended to its value's chain, or starts one, allocating nothing beyond
// amortised growth, and a served relation stays served. Like every
// mutation this carries the single-writer requirement — the live engine
// serializes inserts behind its update lock.
func (r *Relation) Insert(t Tuple) bool { return r.add(t, true) }

// Adopt is Insert without the clone: the relation stores t itself, so the
// caller hands over a tuple nothing will write again — a tuple another
// relation stores or stored (a serving side adopts the maintained side's
// rows, an over-deleted set the database's rows, a re-derivation and a
// rollback the rows the batch removed, an undone batch the rows it
// replays), a decoded snapshot row, or a window onto a backing array that
// outlives every write to it (a merge of newly derived rows, in a fixpoint
// run and in maintenance alike, copies a round's buffer into one such array
// and adopts windows onto it, and a batch's inserts are copied the same
// way, one array per ChunkRows rows).
func (r *Relation) Adopt(t Tuple) bool { return r.add(t, false) }

// Grow makes room for n more tuples: the tuple slice, each built column
// index's chain links and the set index take n more entries without
// reallocating. Each grows the way append does, so a relation grown batch
// after batch reallocates amortised, not every batch. Like every mutation
// it carries the single-writer requirement.
func (r *Relation) Grow(n int) {
	r.own()
	r.tuples = slices.Grow(r.tuples, n)
	for col := range r.indexes {
		if x := r.index(col); x != nil {
			x.next = slices.Grow(x.next, n)
		}
	}
	r.set.Reserve(len(r.tuples) + n)
}

// add is Insert, storing a clone of t when clone is set and t otherwise.
func (r *Relation) add(t Tuple, clone bool) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: relation %s/%d: inserting tuple of width %d", r.name, r.arity, len(t)))
	}
	h := hashTuple(t)
	if r.find(h, t) >= 0 {
		return false
	}
	r.own()
	if clone {
		t = t.Clone()
	}
	r.set.Place(h, len(r.tuples))
	r.tuples = append(r.tuples, t)
	for col := range r.indexes {
		if x := r.index(col); x != nil {
			x.Insert(r.tuples)
		}
	}
	return true
}

// Remove deletes a tuple, reporting whether it was present. Like Insert it
// panics on an arity mismatch — callers validate arity at the Database
// boundary.
//
// The vacated position is filled by swapping the last tuple down, so a
// removal is O(1) in the tuple store and allocates nothing: the set index
// empties the removed tuple's slot by backward-shift deletion and repoints
// the swapped tuple's slot. Each built column index unlinks the removed
// position from its value's chain and puts the swapped tuple's new
// position where its old one was on its own chain — a walk of one chain
// each — so a served relation stays served. Single-writer, like every
// mutation.
func (r *Relation) Remove(t Tuple) bool {
	_, ok := r.take(t)
	return ok
}

// take is Remove, returning the stored tuple it removed — the one a
// rollback re-adopts.
func (r *Relation) take(t Tuple) (Tuple, bool) {
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: relation %s/%d: removing tuple of width %d", r.name, r.arity, len(t)))
	}
	h := hashTuple(t)
	pos := r.find(h, t)
	if pos < 0 {
		return nil, false
	}
	r.own()
	stored := r.tuples[pos]
	for col := range r.indexes {
		if x := r.index(col); x != nil {
			x.remove(r.tuples, pos)
		}
	}
	last := len(r.tuples) - 1
	r.set.Vacate(h, pos)
	if pos != last {
		moved := r.tuples[last]
		r.tuples[pos] = moved
		r.set.Repoint(hashTuple(moved), last, pos)
	}
	r.tuples[last] = nil
	r.tuples = r.tuples[:last]
	return stored, true
}

// TruncateTo discards every tuple from position n onward, restoring the
// relation to the state it had when Len() was n — the rollback primitive
// for the insert-only tail of a batch (Journal.MarkInserts; removals are
// journaled one by one instead, because they swap-fill positions and a
// length snapshot no longer identifies them).
// The removed tuples' slots in the set index are emptied, each built
// column index unlinks the removed positions from their chains, and the
// vacated tail of the tuple slice is cleared so it keeps none of the
// removed tuples alive. Every table keeps its room, so a relation
// truncated and refilled to its earlier size allocates nothing. It carries
// the same single-writer requirement as Insert.
func (r *Relation) TruncateTo(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(r.tuples) {
		return
	}
	r.own()
	for col := range r.indexes {
		if x := r.index(col); x != nil {
			x.truncate(r.tuples, n)
		}
	}
	for off, t := range r.tuples[n:] {
		r.set.Vacate(hashTuple(t), n+off)
	}
	clear(r.tuples[n:])
	r.tuples = r.tuples[:n]
}

// own gives the relation tables of its own before a write when another
// relation may hold them: the tuple array, the set index and every built
// column index are copied as they are, since positions do not change, and
// the relation leaves the count of their holders, only once it has
// finished reading them. The last holder left writes them in place, so a
// shared table is never written and each holder but one copies once. Only
// a write copies: a relation that is only read keeps sharing for good. A
// column another holder's probe is building meanwhile is not copied; the
// copy builds it at its own first probe.
func (r *Relation) own() {
	h := r.holders.Load()
	if h == nil {
		return
	}
	r.holders.Store(nil)
	if h.Load() == 1 {
		return // the last holder: the tables are its own
	}
	defer h.Add(-1)
	r.tuples = slices.Clone(r.tuples)
	r.set = r.set.Clone()
	if r.indexes != nil {
		indexes := make([]colSlot, len(r.indexes))
		for col := range r.indexes {
			if x := r.index(col); x != nil {
				indexes[col].built.Store(x.clone())
			}
		}
		r.indexes = indexes
	}
}

// find returns the position of t, whose hash is h, or -1 when the
// relation does not hold it.
func (r *Relation) find(h uint32, t Tuple) int {
	p := r.set.Probe(h)
	for pos := p.Next(); pos >= 0; pos = p.Next() {
		if slices.Equal(r.tuples[pos], t) {
			return pos
		}
	}
	return -1
}

// Contains reports whether the relation holds the tuple. It allocates
// nothing.
func (r *Relation) Contains(t Tuple) bool {
	return r.find(hashTuple(t), t) >= 0
}

// Stored returns the relation's own copy of t, reporting whether it holds
// one. The copy is a stored tuple: it may be kept and shared, never
// written. It allocates nothing.
func (r *Relation) Stored(t Tuple) (Tuple, bool) {
	if pos := r.find(hashTuple(t), t); pos >= 0 {
		return r.tuples[pos], true
	}
	return nil, false
}

// Tuples returns the tuples in insertion order. The slice is shared; do not
// modify it. Its tuples are stored tuples: a reader may keep and share them
// — another relation may Adopt one — but never write them.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// BuildIndexes serves the relation: from now on each probe of a column
// (ProbeIndex, Lookup) finds its index, built at the column's first probe
// and maintained in place by every mutation after it, so the executor never
// scans a served relation and a column nothing probes costs nothing. It
// builds no index itself. Any number of goroutines may probe a served
// relation concurrently — a first probe builds under the column's lock and
// publishes atomically — but a mutation still writes, so updates and reads
// must be externally serialized. A relation that shares its list of column
// indexes with one that is not served takes a copy of the list first, so a
// probe of it never indexes the other's. Serving is for good: clones of a
// served relation are served.
func (r *Relation) BuildIndexes() {
	if r.served {
		return
	}
	r.ownSlots()
	r.served = true
}

// ownSlots gives the relation a list of column index slots that no other
// relation holds: a fresh one when it has none, a copy of the shared one,
// holding the same built indexes, when it may share it.
func (r *Relation) ownSlots() {
	switch {
	case r.indexes == nil:
		r.indexes = make([]colSlot, r.arity)
	case r.shares():
		indexes := make([]colSlot, len(r.indexes))
		for col := range r.indexes {
			indexes[col].built.Store(r.index(col))
		}
		r.indexes = indexes
	}
}

// BuildColumnIndex builds the hash index of a single column, unless it is
// built already. On a served relation it is the first probe's build
// (ProbeIndex), safe beside concurrent probes. On any other relation it
// mutates the relation, so it carries the single-writer requirement;
// one-shot evaluation uses it to index only the columns a plan probes, and
// a fixpoint the columns its rules probe of what it derives. On a relation
// that shares its tables with a clone it copies only the list of column
// indexes: the new index is built over the shared tuples and belongs to
// this relation alone, while the tuple array and the set index stay
// shared.
func (r *Relation) BuildColumnIndex(col int) {
	if col < 0 || col >= r.arity || r.index(col) != nil {
		return
	}
	if r.served {
		r.buildShared(col)
		return
	}
	r.ownSlots()
	r.indexes[col].built.Store(buildColIndex(r.tuples, col))
}

// buildShared returns served column col's index, building it under the
// column's lock when no probe has yet: a probe that waited on the lock
// finds the index the first one published.
func (r *Relation) buildShared(col int) *ColIndex {
	slot := &r.indexes[col]
	slot.build.Lock()
	defer slot.build.Unlock()
	x := slot.built.Load()
	if x == nil {
		x = buildColIndex(r.tuples, col)
		slot.built.Store(x)
	}
	return x
}

// ProbeIndex returns the hash index a probe of column col reads. On a
// served relation (BuildIndexes) there always is one: the column's first
// probe builds it, once for every relation sharing the tables, and
// publishes it atomically, so any number of goroutines may call ProbeIndex
// at once. On any other relation it is the built index, if there is one,
// and ok=false otherwise — nothing is built, and the caller scans. Probe it
// with the relation's tuples:
//
//	tuples := r.Tuples()
//	for pos := idx.First(tuples, val); pos >= 0; pos = idx.Next(pos) { ... }
//
// The index is shared; it stays valid until the relation is next mutated.
func (r *Relation) ProbeIndex(col int) (*ColIndex, bool) {
	if x := r.index(col); x != nil || !r.served || col < 0 || col >= r.arity {
		return x, x != nil
	}
	return r.buildShared(col), true
}

// ColumnIndex returns the hash index of one column when it is built,
// without ever building it, also on a served relation, whose unprobed
// columns it reports as not built. It never mutates the relation and is
// safe beside concurrent probes. Probes read ProbeIndex, which builds a
// served relation's column; ColumnIndex is what is built so far.
func (r *Relation) ColumnIndex(col int) (*ColIndex, bool) {
	x := r.index(col)
	return x, x != nil
}

// Distinct returns the number of distinct values in column col. It reads
// the column's built index, or builds a throwaway one for a column that has
// none, leaving the relation as it was — also a served one, so counting a
// column that nothing probes keeps no index; either way the count is the
// index's, so there is no second way of counting.
func (r *Relation) Distinct(col int) int {
	if x, ok := r.ColumnIndex(col); ok {
		return x.Distinct()
	}
	if col < 0 || col >= r.arity {
		return 0
	}
	return buildColIndex(r.tuples, col).Distinct()
}

// Lookup returns the tuples whose column col equals val, through the
// column's index. A served relation's index is built at the first probe,
// safely beside concurrent probes (ProbeIndex); any other relation builds
// it here (BuildColumnIndex), which mutates the relation, so race-sensitive
// callers should probe ProbeIndex instead, which never mutates an unserved
// relation, and allocates nothing.
func (r *Relation) Lookup(col int, val string) []Tuple {
	if col < 0 || col >= r.arity {
		return nil
	}
	r.BuildColumnIndex(col)
	x := r.index(col)
	var out []Tuple
	for pos := x.First(r.tuples, val); pos >= 0; pos = x.Next(pos) {
		out = append(out, r.tuples[pos])
	}
	return out
}

// Database is a collection of relations keyed by predicate name.
type Database struct {
	rels    map[string]*Relation
	served  bool    // BuildIndexes: every relation, also one Ensure creates later, is served
	journal Journal // the one batch log of the database's single writer (NewJournal)
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Relation returns the relation for pred, or nil if absent.
func (db *Database) Relation(pred string) *Relation { return db.rels[pred] }

// Ensure returns the relation for pred, creating it with the given arity if
// absent — served when the database is (BuildIndexes). It returns a typed
// *ArityError if the relation exists with another arity.
func (db *Database) Ensure(pred string, arity int) (*Relation, error) {
	if r, ok := db.rels[pred]; ok {
		if r.arity != arity {
			return nil, &ArityError{Pred: pred, Want: r.arity, Got: arity}
		}
		return r, nil
	}
	r := NewRelation(pred, arity)
	if db.served {
		r.BuildIndexes()
	}
	db.rels[pred] = r
	return r, nil
}

// Drop removes the relation for pred, if present — the rollback companion
// to TruncateTo for relations a failed batch created.
func (db *Database) Drop(pred string) { delete(db.rels, pred) }

// Bind makes db hold relations of src themselves, not copies: each named
// relation of src — every one when preds is empty — replaces db's relation
// of that name, so a write through either database reaches both. Relations
// of db that src does not name are kept; a named relation src lacks is
// skipped. Binding allocates nothing once db has seen every name.
func (db *Database) Bind(src *Database, preds ...string) {
	if len(preds) == 0 {
		maps.Copy(db.rels, src.rels)
		return
	}
	for _, p := range preds {
		if r := src.rels[p]; r != nil {
			db.rels[p] = r
		}
	}
}

// Insert adds a tuple under pred, creating the relation on first use.
func (db *Database) Insert(pred string, t Tuple) error {
	r, err := db.Ensure(pred, len(t))
	if err != nil {
		return err
	}
	r.Insert(t)
	return nil
}

// Remove deletes a tuple under pred, reporting whether it was present. A
// missing relation or an arity mismatch both report false — removal of
// what is not there.
func (db *Database) Remove(pred string, t Tuple) bool {
	r, ok := db.rels[pred]
	if !ok || len(t) != r.arity {
		return false
	}
	return r.Remove(t)
}

// InsertFact adds a ground atom as a tuple.
func (db *Database) InsertFact(a cq.Atom) error {
	if !a.IsGround() {
		return fmt.Errorf("storage: fact %s is not ground", a)
	}
	t := make(Tuple, len(a.Args))
	for i, arg := range a.Args {
		t[i] = arg.Lex
	}
	return db.Insert(a.Pred, t)
}

// LoadFacts inserts a batch of ground atoms.
func (db *Database) LoadFacts(facts []cq.Atom) error {
	for _, f := range facts {
		if err := db.InsertFact(f); err != nil {
			return err
		}
	}
	return nil
}

// Predicates returns the relation names in sorted order.
func (db *Database) Predicates() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// BuildIndexes serves the database: every relation it holds, and every one
// Ensure creates in it afterwards, builds a column's index at the column's
// first probe (Relation.BuildIndexes), so it may be probed concurrently.
// It builds no index itself. A relation Bind brings in later keeps its own
// serving state.
func (db *Database) BuildIndexes() {
	db.served = true
	for _, r := range db.rels {
		r.BuildIndexes()
	}
}

// Clone returns a copy of the database that shares every relation's
// tables until one of the two relations is written. It costs one relation
// header per relation, whatever the relations hold, and the first clone of
// a relation's tables one count of their holders: each relation of the
// copy holds the source relation's tuple array, set index and list of
// column indexes themselves, and both count among the tables' holders. The
// first write to a holder that is not the last — an insert, a removal, a
// truncation, a Grow — copies that relation's tables as they are (the
// tuples stay at their positions, so no index is rebuilt) and leaves the
// others as they were; explicitly building a column index of a relation
// that is not served copies only the list of indexes. The last holder
// writes in place. A served relation's copy is served and shares its list
// of column indexes, so a column one of them probes first is built once,
// for both; a relation nobody writes is held once, however often it is
// cloned. The stored tuples themselves are never copied, written or not.
// Clone only reads db's tables, so it may run while other goroutines read,
// probe or clone db; like any read it may not run beside a write to db.
func (db *Database) Clone() *Database {
	out := &Database{rels: make(map[string]*Relation, len(db.rels)), served: db.served}
	for p, r := range db.rels {
		h := r.holderCount()
		h.Add(1)
		nr := &Relation{name: p, arity: r.arity, served: r.served, tuples: r.tuples, set: r.set, indexes: r.indexes}
		nr.holders.Store(h)
		out.rels[p] = nr
	}
	return out
}

// TotalTuples returns the number of tuples across all relations.
func (db *Database) TotalTuples() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// SortTuples orders a tuple slice lexicographically in place and returns it;
// useful for deterministic comparison in tests and reports.
func SortTuples(ts []Tuple) []Tuple {
	slices.SortFunc(ts, Tuple.Compare)
	return ts
}

// TuplesEqual reports whether two tuple sets are equal regardless of order.
// It sorts copies of both slices and compares them column by column, so
// tuples whose keys coincide (Tuple.Key) are never confused.
func TuplesEqual(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	return slices.EqualFunc(SortTuples(slices.Clone(a)), SortTuples(slices.Clone(b)), func(x, y Tuple) bool {
		return x.Compare(y) == 0
	})
}
