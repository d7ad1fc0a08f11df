package datalog

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

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
// Every answer path deduplicates through it: a plan run's emitted rows,
// EvalUnion and the engine's union of contained rewritings. It is also the derivation buffer of every rule-variant
// execution (emitVariant), pooled with the run's scratch: the round's
// merge copies its rows out (mergeRound), so no relation ever holds a
// window onto the arena, and the set is reset for the next execution. The
// zero value is an empty set whose width the first Add fixes.
//
// A set taken with AcquireRowSet carries one request's answers from the
// executor to the caller (EvalIntoCtx, then Sort): the caller reads the
// rows in place through Len and Row, or copies them out with Rows, and
// then gives the set back with Release. Until Release it owns the set and
// the rows; after it, neither may be touched, because the arena is cleared
// and handed to the next request.
type RowSet struct {
	width int
	n     int      // rows stored
	vals  []string // the arena
	// table indexes every row once n reached linearDedupRows, and is empty
	// before.
	table storage.PosTable
	// sorted holds, once Sort ran, a window onto the arena per row, in
	// sorted order.
	sorted []storage.Tuple
	state  setState
}

// setState is where a set is in its life. Rows are added only to an open
// set; Sort closes it, because a row added later would be missing from
// the sorted order; Release returns it to the pool until AcquireRowSet
// hands it out again.
type setState uint8

const (
	setOpen setState = iota
	setSorted
	setReleased
)

// rowSetPool holds the sets AcquireRowSet hands out, emptied within the
// pooling bounds.
var rowSetPool = sync.Pool{New: func() any { return new(RowSet) }}

// AcquireRowSet takes an empty set from the pool. The caller gives it back
// with Release once nothing reads its rows any more.
func AcquireRowSet() *RowSet {
	s := rowSetPool.Get().(*RowSet)
	s.state = setOpen
	return s
}

// Release empties the set and returns it to the pool. Neither the set nor
// a row read from it (Row) may be used afterwards. Releasing a set twice
// panics: the pool would hand one arena to two requests.
func (s *RowSet) Release() {
	if s.state == setReleased {
		panic("datalog: row set released twice")
	}
	s.reset()
	s.state = setReleased
	rowSetPool.Put(s)
}

// mustAdd panics unless rows may still be added to the set.
func (s *RowSet) mustAdd() {
	switch s.state {
	case setSorted:
		panic("datalog: adding a row to a sorted row set")
	case setReleased:
		panic("datalog: adding a row to a released row set")
	}
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
// in the set — a set holds the answers of one query — and after Sort or
// Release.
func (s *RowSet) Add(row []string) bool {
	s.mustAdd()
	if s.n == 0 {
		s.width = len(row)
	} else if len(row) != s.width {
		panic(fmt.Sprintf("datalog: adding a row of width %d to a set of width %d", len(row), s.width))
	}
	s.vals = append(s.vals, row...)
	return s.addTail()
}

// Rows returns the set's rows in insertion order, or in sorted order once
// Sort ran, in two exact-size allocations: one backing array of values and
// one slice of tuples that are capacity-limited windows onto it, so
// appending to one row never writes into the next. The rows share nothing
// with the set.
func (s *RowSet) Rows() []storage.Tuple {
	if s.n == 0 {
		return nil
	}
	w := s.width
	backing := make([]string, s.n*w)
	rows := make([]storage.Tuple, s.n)
	for i := range rows {
		rows[i] = backing[i*w : (i+1)*w : (i+1)*w]
		copy(rows[i], s.Row(i))
	}
	return rows
}

// Row is row i, 0 <= i < Len, in insertion order, or in sorted order once
// Sort ran: a capacity-limited window onto the arena, valid until Release,
// which the caller must not write.
func (s *RowSet) Row(i int) storage.Tuple {
	switch s.state {
	case setSorted:
		return s.sorted[i]
	case setReleased:
		panic("datalog: reading a released row set")
	}
	w := s.width
	return s.vals[i*w : (i+1)*w : (i+1)*w]
}

// row is stored row i.
func (s *RowSet) row(i int) []string { return s.vals[i*s.width : (i+1)*s.width] }

// Sort orders the rows by storage.Tuple.Compare without moving a value:
// it sorts windows onto the arena, one per row, with storage.SortTuples,
// and Row and Rows read the rows in that order from then on. A row added
// afterwards would be missing from the order, so no row may be added to a
// sorted set.
func (s *RowSet) Sort() {
	switch s.state {
	case setSorted:
		return
	case setReleased:
		panic("datalog: sorting a released row set")
	}
	for i := 0; i < s.n; i++ {
		s.sorted = append(s.sorted, s.Row(i))
	}
	storage.SortTuples(s.sorted)
	s.state = setSorted
}

// appendNew stores row, which the caller knows no stored row equals,
// without looking it up. Only a set whose table is not built yet may take
// it — one that was empty when the caller began appending — because the
// first lookup past the linear range builds the table from every stored
// row, these included.
func (s *RowSet) appendNew(row []string) {
	s.mustAdd()
	if s.n == 0 {
		s.width = len(row)
	}
	s.vals = append(s.vals, row...)
	s.n++
}

// addAll adds o's rows to s. An empty s trades storage with o instead, so
// the rows are not copied; o is left for its owner to reset.
func (s *RowSet) addAll(o *RowSet) {
	s.mustAdd()
	if s.n > 0 {
		for i := 0; i < o.n; i++ {
			s.Add(o.row(i))
		}
		return
	}
	s.width, o.width = o.width, s.width
	s.n, o.n = o.n, s.n
	s.vals, o.vals = o.vals, s.vals
	s.table, o.table = o.table, s.table
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
// linear range, in a table of at least 4*linearDedupRows slots, sized at
// once for rows stored without lookup (appendNew). A pooled table is
// already empty.
func (s *RowSet) index() {
	s.table.Reserve(max(2*linearDedupRows, s.n))
	for r := 0; r < s.n; r++ {
		s.table.Place(hashRow(s.row(r)), r)
	}
}

// reset empties the set for reuse by a pooled run: no value the arena ever
// held — truncated repeats included — stays reachable, and storage grown
// past the pooling bounds is dropped. Only the front of the arena is
// cleared: rows are appended behind the stored ones and a repeat is
// truncated before the next row is written, so since the last reset
// nothing was written past the first n+1 rows, and what lies beyond was
// cleared then or never written. Clearing the whole capacity cost every
// point lookup a pass over up to maxPooledVals strings, the size a pooled
// scratch grows to in maintenance rounds.
func (s *RowSet) reset() {
	if cap(s.vals) > maxPooledVals {
		s.vals = nil
	} else {
		clear(s.vals[:min(cap(s.vals), (s.n+1)*s.width)])
		s.vals = s.vals[:0]
	}
	if s.table.Cap() > maxPooledSlots {
		s.table = storage.PosTable{}
	} else {
		s.table.Clear()
	}
	clear(s.sorted)
	if cap(s.sorted) > maxPooledVals {
		s.sorted = nil
	} else {
		s.sorted = s.sorted[:0]
	}
	s.width, s.n, s.state = 0, 0, setOpen
}
