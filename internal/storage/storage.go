// Package storage provides the in-memory relational substrate used to
// evaluate queries and rewritings: relations of string-valued tuples with
// set semantics, lazily built per-column hash indexes, and a database
// keyed by predicate name.
//
// Values are constant lexemes (see cq.Term); Skolem values produced by the
// inverse-rules algorithm live in the same domain as tagged strings and
// join by ordinary equality.
package storage

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/cq"
)

// ArityError reports a tuple width (or declared arity) conflicting with a
// relation's schema — the typed form of the errors the Ensure methods
// return and the serving-path alternative to Insert's invariant panic
// (CheckedInsert).
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

// Key returns a canonical encoding of the tuple for set membership.
func (t Tuple) Key() string { return strings.Join(t, "\x1f") }

// Clone returns a copy of the tuple.
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

// Less reports t < o under Compare.
func (t Tuple) Less(o Tuple) bool { return t.Compare(o) < 0 }

// Relation is a named set of tuples of a fixed arity. Insertion order is
// preserved for deterministic iteration until the first Remove, which
// swap-fills the vacated position; duplicates are ignored.
type Relation struct {
	name   string
	arity  int
	tuples []Tuple
	seen   map[string]int // key -> position in tuples

	indexes map[int]map[string][]int // column -> value -> tuple positions
	version int                      // bumped on insert; invalidates indexes
	indexed int                      // version at which indexes were built
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{name: name, arity: arity, seen: make(map[string]int)}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the tuple width.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of distinct tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Insert adds a tuple, reporting whether it was new. It panics on an arity
// mismatch — callers validate arity at the Database boundary.
//
// When the column indexes are current at the time of the insert (the
// relation was frozen with BuildIndexes, or lazily indexed and not stale),
// they are maintained incrementally: the new tuple's position is appended
// to each built index in O(built columns) and the relation stays Frozen.
// Only an insert over already-stale indexes leaves them invalidated. Like
// every mutation this carries the single-writer requirement — the live
// engine serializes inserts behind its update lock.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: relation %s/%d: inserting tuple of width %d", r.name, r.arity, len(t)))
	}
	k := t.Key()
	if _, dup := r.seen[k]; dup {
		return false
	}
	maintained := r.indexes != nil && r.indexed == r.version
	pos := len(r.tuples)
	r.seen[k] = pos
	r.tuples = append(r.tuples, t.Clone())
	r.version++
	if maintained {
		for col, idx := range r.indexes {
			idx[t[col]] = append(idx[t[col]], pos)
		}
		r.indexed = r.version
	}
	return true
}

// CheckedInsert is Insert returning a typed *ArityError instead of
// panicking on a width mismatch — the serving-boundary variant for tuples
// arriving from outside the process, where a malformed row is an input
// error, not a programming error.
func (r *Relation) CheckedInsert(t Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, &ArityError{Pred: r.name, Want: r.arity, Got: len(t)}
	}
	return r.Insert(t), nil
}

// Remove deletes a tuple, reporting whether it was present. Like Insert it
// panics on an arity mismatch — callers validate arity at the Database
// boundary.
//
// The vacated position is filled by swapping the last tuple down, so a
// removal is O(1) in the tuple store. When the column indexes are current
// they are maintained incrementally in O(arity) amortized, the same way
// Insert appends: the removed position is deleted from each built posting
// list and the swapped tuple's entries are repointed, so the relation stays
// Frozen across removals. Over stale indexes the version bump invalidates
// them as usual. Single-writer, like every mutation.
func (r *Relation) Remove(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("storage: relation %s/%d: removing tuple of width %d", r.name, r.arity, len(t)))
	}
	k := t.Key()
	pos, ok := r.seen[k]
	if !ok {
		return false
	}
	maintained := r.indexes != nil && r.indexed == r.version
	last := len(r.tuples) - 1
	if maintained {
		for col, idx := range r.indexes {
			removePosting(idx, r.tuples[pos][col], pos)
		}
	}
	if pos != last {
		moved := r.tuples[last]
		if maintained {
			for col, idx := range r.indexes {
				repointPosting(idx, moved[col], last, pos)
			}
		}
		r.tuples[pos] = moved
		r.seen[moved.Key()] = pos
	}
	r.tuples[last] = nil
	r.tuples = r.tuples[:last]
	delete(r.seen, k)
	r.version++
	if maintained {
		r.indexed = r.version
	}
	return true
}

// CheckedRemove is Remove returning a typed *ArityError instead of
// panicking on a width mismatch — the serving-boundary variant for tuples
// arriving from outside the process.
func (r *Relation) CheckedRemove(t Tuple) (bool, error) {
	if len(t) != r.arity {
		return false, &ArityError{Pred: r.name, Want: r.arity, Got: len(t)}
	}
	return r.Remove(t), nil
}

// removePosting deletes position pos from the posting list of val,
// searching by value (posting lists lose their sorted-by-position shape
// after the first swap-remove, so tail-popping is not an option).
func removePosting(idx map[string][]int, val string, pos int) {
	ps := idx[val]
	for i, p := range ps {
		if p == pos {
			ps[i] = ps[len(ps)-1]
			ps = ps[:len(ps)-1]
			if len(ps) == 0 {
				delete(idx, val)
			} else {
				idx[val] = ps
			}
			return
		}
	}
}

// repointPosting rewrites one occurrence of position from to position to in
// the posting list of val — the index half of a swap-fill.
func repointPosting(idx map[string][]int, val string, from, to int) {
	ps := idx[val]
	for i, p := range ps {
		if p == from {
			ps[i] = to
			return
		}
	}
}

// TruncateTo discards every tuple from position n onward, restoring the
// relation to the state it had when Len() was n — the rollback primitive
// for the insert-only tail of a batch (Journal.MarkInserts; removals are
// journaled one by one instead, because they swap-fill positions and a
// length snapshot no longer identifies them).
// Dedup keys of the removed tuples are forgotten, and maintained column
// indexes are repaired in place by deleting the removed positions from the
// affected posting lists; stale indexes are simply discarded. It carries
// the same single-writer requirement as Insert.
func (r *Relation) TruncateTo(n int) {
	if n < 0 {
		n = 0
	}
	if n >= len(r.tuples) {
		return
	}
	removed := r.tuples[n:]
	maintained := r.indexes != nil && r.indexed == r.version
	for off, t := range removed {
		delete(r.seen, t.Key())
		if maintained {
			for col, idx := range r.indexes {
				removePosting(idx, t[col], n+off)
			}
		}
	}
	r.tuples = r.tuples[:n]
	r.version++
	if maintained {
		r.indexed = r.version
	}
}

// Contains reports whether the relation holds the tuple.
func (r *Relation) Contains(t Tuple) bool {
	_, ok := r.seen[t.Key()]
	return ok
}

// ContainsKey reports whether the relation holds a tuple with the given
// canonical key (Tuple.Key). Hot loops that already computed the key for
// their own dedup avoid re-encoding the tuple.
func (r *Relation) ContainsKey(k string) bool {
	_, ok := r.seen[k]
	return ok
}

// ContainsKeyBytes is ContainsKey for a key held in a byte buffer: the
// lookup does not copy the key, so a loop testing keys it builds in a
// reused buffer allocates nothing per test.
func (r *Relation) ContainsKeyBytes(k []byte) bool {
	_, ok := r.seen[string(k)]
	return ok
}

// Tuples returns the tuples in insertion order. The slice is shared; do not
// modify.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// BuildIndexes eagerly builds the hash index for every column at the
// current version. After it returns — and as long as no further inserts
// happen — Lookup never mutates the relation, so any number of goroutines
// may read it concurrently. The serving engine calls this once at
// construction to freeze its database for parallel evaluation. Inserts
// after BuildIndexes maintain the indexes incrementally (see Insert), so
// the relation stays frozen across live updates; an insert still mutates,
// so updates and reads must be externally serialized.
func (r *Relation) BuildIndexes() {
	for col := 0; col < r.arity; col++ {
		r.BuildColumnIndex(col)
	}
}

// BuildColumnIndex builds the hash index of a single column at the current
// version, discarding stale indexes first. Like Lookup's lazy build it
// mutates the relation, so it carries the same single-writer requirement;
// one-shot evaluation uses it to index only the columns a plan probes.
func (r *Relation) BuildColumnIndex(col int) {
	if col < 0 || col >= r.arity {
		return
	}
	if r.indexes == nil || r.indexed != r.version {
		r.indexes = make(map[int]map[string][]int, r.arity)
		r.indexed = r.version
	}
	if _, ok := r.indexes[col]; ok {
		return
	}
	idx := make(map[string][]int)
	for i, t := range r.tuples {
		idx[t[col]] = append(idx[t[col]], i)
	}
	r.indexes[col] = idx
}

// Frozen reports whether every column index is built at the current
// version. A frozen relation is safe for concurrent readers: Lookup and
// LookupPositions never mutate it, and Insert maintains the indexes in
// place, so a relation stays frozen across maintained inserts.
func (r *Relation) Frozen() bool {
	return r.indexes != nil && r.indexed == r.version && len(r.indexes) == r.arity
}

// LookupPositions returns the positions (indexes into Tuples()) of the
// tuples whose column col equals val. Unlike Lookup it never builds or
// repairs indexes: when the index for col is stale or absent it reports
// ok=false and the caller must scan instead. The returned slice is shared
// with the index; do not modify. Because it never mutates the relation it
// is safe to call from any number of goroutines once the relation is
// frozen (BuildIndexes), and — returning positions rather than a fresh
// []Tuple — it allocates nothing.
func (r *Relation) LookupPositions(col int, val string) (positions []int, ok bool) {
	idx, ok := r.ColumnIndex(col)
	if !ok {
		return nil, false
	}
	return idx[val], true
}

// ColumnIndex returns the hash index of one column (value → tuple
// positions) when it is built at the current version, without ever
// building it. Hot loops that probe the same column many times resolve
// the index once through this accessor instead of paying two map hops per
// LookupPositions call. The returned map is shared; do not modify.
func (r *Relation) ColumnIndex(col int) (map[string][]int, bool) {
	if col < 0 || col >= r.arity || r.indexes == nil || r.indexed != r.version {
		return nil, false
	}
	idx, ok := r.indexes[col]
	return idx, ok
}

// Lookup returns the tuples whose column col equals val, using a lazily
// built hash index. Building the index mutates the relation, so concurrent
// readers must freeze it first (BuildIndexes); race-sensitive callers
// should prefer LookupPositions, which falls back to reporting ok=false
// instead of mutating.
func (r *Relation) Lookup(col int, val string) []Tuple {
	if col < 0 || col >= r.arity {
		return nil
	}
	r.BuildColumnIndex(col)
	positions := r.indexes[col][val]
	out := make([]Tuple, len(positions))
	for i, p := range positions {
		out[i] = r.tuples[p]
	}
	return out
}

// Database is a collection of relations keyed by predicate name.
type Database struct {
	rels map[string]*Relation
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Relation returns the relation for pred, or nil if absent.
func (db *Database) Relation(pred string) *Relation { return db.rels[pred] }

// Ensure returns the relation for pred, creating it with the given arity if
// absent. It returns a typed *ArityError if the relation exists with
// another arity.
func (db *Database) Ensure(pred string, arity int) (*Relation, error) {
	if r, ok := db.rels[pred]; ok {
		if r.arity != arity {
			return nil, &ArityError{Pred: pred, Want: r.arity, Got: arity}
		}
		return r, nil
	}
	r := NewRelation(pred, arity)
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

// BuildIndexes freezes every relation for concurrent reads; see
// Relation.BuildIndexes.
func (db *Database) BuildIndexes() {
	for _, r := range db.rels {
		r.BuildIndexes()
	}
}

// Clone returns a deep copy of the database. Relations that were frozen
// are re-frozen in the copy, so cloning a serving database never silently
// demotes indexed probes back to scans.
func (db *Database) Clone() *Database {
	out := NewDatabase()
	for p, r := range db.rels {
		nr := NewRelation(p, r.arity)
		for _, t := range r.tuples {
			nr.Insert(t)
		}
		if r.Frozen() {
			nr.BuildIndexes()
		}
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
func TuplesEqual(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, t := range a {
		seen[t.Key()]++
	}
	for _, t := range b {
		k := t.Key()
		seen[k]--
		if seen[k] < 0 {
			return false
		}
	}
	return true
}
