package storage

// PosTable is an open-addressing hash table of positions into a store its
// caller keeps — a relation's tuples, a row set's arena. It holds no keys:
// each slot is a uint64 with the key's 32-bit hash in the high half and the
// position plus one in the low half, zero being an empty slot, so a hit on
// the hash is confirmed by the caller comparing the stored item itself.
// Probing is linear, and the slot count is a power of two kept at least
// twice the number of entries. The zero value is an empty table.
type PosTable struct {
	slots []uint64
	n     int // occupied slots
}

// minPosSlots is the slot count a table starts with.
const minPosSlots = 8

// Len is the number of positions in the table.
func (t *PosTable) Len() int { return t.n }

// Cap is the number of slots.
func (t *PosTable) Cap() int { return len(t.slots) }

// Reserve makes room for n entries at a load of at most one half,
// re-placing the entries held by their stored hashes when it has to grow.
func (t *PosTable) Reserve(n int) {
	if 2*n <= len(t.slots) {
		return
	}
	size := minPosSlots
	for size < 2*n {
		size <<= 1
	}
	old := t.slots
	t.slots = make([]uint64, size)
	mask := size - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(uint32(e>>32)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// Place adds position pos under hash h, growing the table when it would
// pass half full. The caller has made sure no entry for the same item is
// present (Probe).
func (t *PosTable) Place(h uint32, pos int) {
	t.Reserve(t.n + 1)
	mask := len(t.slots) - 1
	i := int(h) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = uint64(h)<<32 | uint64(pos+1)
	t.n++
}

// Probe starts a walk over the positions stored under hash h:
//
//	p := t.Probe(h)
//	for pos := p.Next(); pos >= 0; pos = p.Next() { ... }
//
// The walk holds no closure and allocates nothing. The table must not
// change while it runs.
func (t *PosTable) Probe(h uint32) Probe {
	mask := len(t.slots) - 1
	return Probe{slots: t.slots, mask: mask, i: (int(h) - 1) & mask, h: h}
}

// Probe is a walk along one hash's probe chain (PosTable.Probe).
type Probe struct {
	slots   []uint64
	mask, i int
	h       uint32
}

// Next returns the next position stored under the walk's hash, or -1 once
// the chain ends at an empty slot.
func (p *Probe) Next() int {
	if len(p.slots) == 0 {
		return -1
	}
	for {
		p.i = (p.i + 1) & p.mask
		e := p.slots[p.i]
		if e == 0 {
			return -1
		}
		if uint32(e>>32) == p.h {
			return int(uint32(e)) - 1
		}
	}
}

// slot returns the index of the slot holding position pos under hash h,
// which must be present.
func (t *PosTable) slot(h uint32, pos int) int {
	want := uint64(h)<<32 | uint64(pos+1)
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		switch t.slots[i] {
		case want:
			return i
		case 0:
			panic("storage: position missing from its table")
		}
	}
}

// Vacate removes position pos, stored under hash h, by backward-shift
// deletion: each later entry of the run whose home slot does not lie
// between the hole and itself moves back into the hole, so every chain
// stays unbroken and no tombstone is left behind.
func (t *PosTable) Vacate(h uint32, pos int) {
	t.vacateSlot(t.slot(h, pos))
}

// vacateSlot empties slot i by backward-shift deletion (Vacate).
func (t *PosTable) vacateSlot(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := int(uint32(t.slots[j]>>32)) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}

// Repoint moves the entry for position from, stored under hash h, to
// position to — the table half of a swap-fill.
func (t *PosTable) Repoint(h uint32, from, to int) {
	t.put(t.slot(h, from), h, to)
}

// put overwrites slot i with position pos under hash h.
func (t *PosTable) put(i int, h uint32, pos int) {
	t.slots[i] = uint64(h)<<32 | uint64(pos+1)
}

// Clear empties the table, keeping its slots for reuse.
func (t *PosTable) Clear() {
	if t.n > 0 {
		clear(t.slots)
		t.n = 0
	}
}

// Clone returns an independent copy of the table.
func (t *PosTable) Clone() PosTable {
	return PosTable{slots: append([]uint64(nil), t.slots...), n: t.n}
}
