package storage

import "hash/maphash"

// ColIndex is the hash index of one column of a tuple store its caller
// keeps — a relation's tuples, a fixpoint's derived relation. It holds
// positions, never values: heads keeps, under the 32-bit hash of each
// distinct value, the position of one tuple holding it, and next chains
// every other tuple with the same value from there, -1 ending a chain. A
// hash hit is confirmed by comparing the stored tuple's column, so no value
// string and no per-value slice is kept; an index costs a slot or two per
// distinct value and four bytes per tuple, and the count of heads is the
// column's distinct count, the planner's statistic (Distinct).
//
// Probing allocates nothing:
//
//	for pos := x.First(tuples, val); pos >= 0; pos = x.Next(pos) { ... }
//
// An index built over a store lists each chain in ascending position; Insert
// prepends, so later tuples come first.
type ColIndex struct {
	col   int
	heads PosTable // hash of a value -> position of its chain's first tuple
	next  []int32  // next[pos] is the next position with tuples[pos]'s value
}

// buildColIndex indexes column col of tuples.
func buildColIndex(tuples []Tuple, col int) *ColIndex {
	x := &ColIndex{col: col, next: make([]int32, len(tuples))}
	for pos := len(tuples) - 1; pos >= 0; pos-- {
		x.next[pos] = x.prepend(tuples, pos)
	}
	return x
}

// hashValue hashes one column value to 32 bits.
func hashValue(v string) uint32 { return uint32(maphash.String(keySeed, v)) }

// First returns the position of the first tuple of tuples whose column
// equals val, or -1 when there is none.
func (x *ColIndex) First(tuples []Tuple, val string) int {
	p := x.heads.Probe(hashValue(val))
	for pos := p.Next(); pos >= 0; pos = p.Next() {
		if tuples[pos][x.col] == val {
			return pos
		}
	}
	return -1
}

// Next returns the position after pos on pos's chain, or -1 at its end.
func (x *ColIndex) Next(pos int) int { return int(x.next[pos]) }

// Distinct returns the number of distinct values in the column: one heads
// slot is kept per value, so the count is read, not computed.
func (x *ColIndex) Distinct() int { return x.heads.Len() }

// Insert indexes the last tuple of tuples, which the caller has just
// appended to the store the index covers. It allocates nothing beyond the
// amortised growth of the chain links and the heads table.
func (x *ColIndex) Insert(tuples []Tuple) {
	x.next = append(x.next, x.prepend(tuples, len(x.next)))
}

// prepend makes position pos the first of its value's chain and returns
// the position it displaced, or -1 when pos starts a new chain.
func (x *ColIndex) prepend(tuples []Tuple, pos int) int32 {
	val := tuples[pos][x.col]
	h := hashValue(val)
	p := x.heads.Probe(h)
	for head := p.Next(); head >= 0; head = p.Next() {
		if tuples[head][x.col] == val {
			x.heads.put(p.i, h, pos)
			return int32(head)
		}
	}
	x.heads.Place(h, pos)
	return -1
}

// link finds what points at position pos, hashed h: the heads slot of its
// chain and pos's predecessor on it, -1 when pos is the head.
func (x *ColIndex) link(tuples []Tuple, h uint32, pos int) (slot, prev int) {
	val := tuples[pos][x.col]
	p := x.heads.Probe(h)
	for head := p.Next(); head >= 0; head = p.Next() {
		if tuples[head][x.col] != val {
			continue
		}
		if head == pos {
			return p.i, -1
		}
		for prev = head; int(x.next[prev]) != pos; prev = int(x.next[prev]) {
		}
		return p.i, prev
	}
	panic("storage: position missing from its column index")
}

// unlink takes position pos off its chain, emptying the chain's heads slot
// when pos was its only tuple.
func (x *ColIndex) unlink(tuples []Tuple, pos int) {
	h := hashValue(tuples[pos][x.col])
	slot, prev := x.link(tuples, h, pos)
	switch succ := x.next[pos]; {
	case prev >= 0:
		x.next[prev] = succ
	case succ >= 0:
		x.heads.put(slot, h, int(succ))
	default:
		x.heads.vacateSlot(slot)
	}
}

// remove unindexes position pos of tuples ahead of the store's swap-fill:
// the store's last tuple is about to move down to pos, so it takes pos's
// place on its own chain, and the links shrink by one.
func (x *ColIndex) remove(tuples []Tuple, pos int) {
	last := len(x.next) - 1
	x.unlink(tuples, pos)
	if pos != last {
		h := hashValue(tuples[last][x.col])
		slot, prev := x.link(tuples, h, last)
		if prev >= 0 {
			x.next[prev] = int32(pos)
		} else {
			x.heads.put(slot, h, pos)
		}
		x.next[pos] = x.next[last]
	}
	x.next = x.next[:last]
}

// truncate unindexes every position from n onward, last first, so each is
// usually the head of its chain.
func (x *ColIndex) truncate(tuples []Tuple, n int) {
	for pos := len(x.next) - 1; pos >= n; pos-- {
		x.unlink(tuples, pos)
	}
	x.next = x.next[:n]
}

// clone returns an independent copy of the index, valid for a copy of its
// store that keeps every tuple at its position.
func (x *ColIndex) clone() *ColIndex {
	return &ColIndex{col: x.col, heads: x.heads.Clone(), next: append([]int32(nil), x.next...)}
}
