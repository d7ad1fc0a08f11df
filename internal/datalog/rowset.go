package datalog

import (
	"fmt"
	"hash/maphash"
	"slices"

	"repro/internal/storage"
)

// RowSet is a set of equal-width rows of values stored flat in one value
// arena: row i is vals[i*width : (i+1)*width]. A candidate row is appended
// to the arena first and kept or truncated away once its newness is known,
// so adding a row allocates nothing beyond arena and table growth. Newness
// is decided by comparing columns: against every stored row while there are
// at most linearDedupRows of them, past that through a storage.PosTable of
// row numbers keyed by a maphash of the columns — a hash collision costs a
// compare, never an answer.
//
// Every answer path deduplicates through it: a plan run's emitted rows, the
// merge of a sharded run, EvalUnion and the engine's union of contained
// rewritings. It is also the derivation buffer of every rule-variant
// execution (emitVariant), whose merge reads the rows back as tuples that
// share the arena (tuple), or copies the accepted ones out of it for a
// relation that outlives the round (mergeRound). The zero value is an
// empty set whose width the first Add fixes.
type RowSet struct {
	width int
	n     int      // rows stored
	vals  []string // the arena
	// table indexes every row once n reached linearDedupRows, and is empty
	// before.
	table storage.PosTable
}

// linearDedupRows is the row count up to which a set finds repeats by
// comparing against the rows stored so far. Most served lookups return a
// handful of rows, and a handful of string compares is cheaper than hashing
// every row.
const linearDedupRows = 8

// maxPooledVals and maxPooledSlots bound the arena and table a pooled set
// keeps between runs; a run that grew past them drops its storage instead,
// so one large answer does not stay resident in the pool.
const (
	maxPooledVals  = 1 << 13
	maxPooledSlots = 1 << 13
)

// rowSeed keys the row hash; it is fixed for the life of the process.
var rowSeed = maphash.MakeSeed()

// hashRow hashes a row's values, order-sensitively, to 32 bits.
func hashRow(row []string) uint32 {
	h := uint64(len(row))
	for _, v := range row {
		h = (h ^ maphash.String(rowSeed, v)) * 0x9e3779b97f4a7c15
	}
	return uint32(h >> 32)
}

// Len is the number of rows in the set.
func (s *RowSet) Len() int { return s.n }

// Add inserts row unless an equal row is already in the set, reporting
// whether it was new. The values are copied into the arena; row itself is
// not retained. It panics when row's width differs from the rows already
// in the set — a set holds the answers of one query.
func (s *RowSet) Add(row []string) bool {
	if s.n == 0 {
		s.width = len(row)
	} else if len(row) != s.width {
		panic(fmt.Sprintf("datalog: adding a row of width %d to a set of width %d", len(row), s.width))
	}
	s.vals = append(s.vals, row...)
	return s.addTail()
}

// Rows returns the set's rows in insertion order, in two exact-size
// allocations: one backing array of values and one slice of tuples that are
// capacity-limited windows onto it, so appending to one row never writes
// into the next. The rows share nothing with the set.
func (s *RowSet) Rows() []storage.Tuple {
	if s.n == 0 {
		return nil
	}
	w := s.width
	backing := make([]string, s.n*w)
	copy(backing, s.vals)
	rows := make([]storage.Tuple, s.n)
	for i := range rows {
		rows[i] = backing[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// row is stored row i.
func (s *RowSet) row(i int) []string { return s.vals[i*s.width : (i+1)*s.width] }

// tuple is stored row i as a tuple: a capacity-limited window onto the
// arena, so appending to it never writes into the next row. It shares the
// arena, so a set that hands out tuples must not be reset (pooled) while
// they are in use.
func (s *RowSet) tuple(i int) storage.Tuple {
	return s.vals[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// find reports whether a stored row equals row: by comparing against every
// stored row while there are at most linearDedupRows of them, and through
// the table, which it builds on first use, past that — returning row's hash
// then, for the caller to place it.
func (s *RowSet) find(row []string) (uint32, bool) {
	if s.n < linearDedupRows {
		for i := 0; i < s.n; i++ {
			if slices.Equal(s.row(i), row) {
				return 0, true
			}
		}
		return 0, false
	}
	if s.table.Len() == 0 {
		s.index()
	}
	h := hashRow(row)
	p := s.table.Probe(h)
	for r := p.Next(); r >= 0; r = p.Next() {
		if slices.Equal(s.row(r), row) {
			return h, true
		}
	}
	return h, false
}

// addTail decides whether the width values at the arena's tail, just
// appended, form a new row: a new row is kept, a repeat is truncated away.
func (s *RowSet) addTail() bool {
	h, found := s.find(s.vals[s.n*s.width:])
	if found {
		s.vals = s.vals[:s.n*s.width]
		return false
	}
	if s.n >= linearDedupRows {
		s.table.Place(h, s.n)
	}
	s.n++
	return true
}

// index places the rows stored so far, the first time the set outgrows the
// linear range, in a table of at least 4*linearDedupRows slots. A pooled
// table is already empty.
func (s *RowSet) index() {
	s.table.Reserve(2 * linearDedupRows)
	for r := 0; r < s.n; r++ {
		s.table.Place(hashRow(s.row(r)), r)
	}
}

// reset empties the set for reuse by a pooled run: the arena is cleared to
// its full capacity, so no value it ever held — truncated repeats included —
// stays reachable, and storage grown past the pooling bounds is dropped.
func (s *RowSet) reset() {
	if cap(s.vals) > maxPooledVals {
		s.vals = nil
	} else {
		clear(s.vals[:cap(s.vals)])
		s.vals = s.vals[:0]
	}
	if s.table.Cap() > maxPooledSlots {
		s.table = storage.PosTable{}
	} else {
		s.table.Clear()
	}
	s.width, s.n = 0, 0
}
