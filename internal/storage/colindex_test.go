package storage

import (
	"fmt"
	"testing"
)

// TestColIndexChainsWrapAround builds a column index whose heads table has
// 8 slots and holds four values whose home slots are the last two, so
// their probe runs wrap to the table's start, each value held by three
// tuples. It then removes, from every chain, its head, its middle or its
// tail first and the rest after: unlinking must keep every chain whole
// across the swap-fills, and emptying a chain must vacate its head slot
// without breaking the runs that wrap past it.
func TestColIndexChainsWrapAround(t *testing.T) {
	const slots, perValue = 8, 3
	var vals []string
	for i := 0; len(vals) < slots/2; i++ {
		if v := fmt.Sprint("w", i); hashValue(v)%slots >= slots-2 {
			vals = append(vals, v)
		}
	}
	for first := 0; first < perValue; first++ { // 0 head, 1 middle, 2 tail
		r := NewRelation("r", 2)
		for j := 0; j < perValue; j++ {
			for _, v := range vals {
				r.Insert(Tuple{v, fmt.Sprint(j)})
			}
		}
		r.BuildIndexes()
		x, _ := r.ProbeIndex(0)
		if x.heads.Cap() != slots || x.heads.slots[0] == 0 {
			t.Fatalf("heads have %d slots, slot 0 empty=%v: want %d slots and a wrapped run", x.heads.Cap(), x.heads.slots[0] == 0, slots)
		}
		checkConsistent(t, r)
		for _, v := range vals {
			chain, _ := probe(r, 0, v)
			if len(chain) != perValue {
				t.Fatalf("value %q: chain %v, want %d positions", v, chain, perValue)
			}
			victims := []Tuple{r.tuples[chain[first]]}
			for k, pos := range chain {
				if k != first {
					victims = append(victims, r.tuples[pos])
				}
			}
			for _, tu := range victims {
				if !r.Remove(tu) {
					t.Fatalf("Remove(%q) reported absent", tu)
				}
				checkConsistent(t, r)
			}
			if ps, _ := probe(r, 0, v); len(ps) != 0 {
				t.Fatalf("value %q still chains %v after all its tuples went", v, ps)
			}
		}
		if r.Len() != 0 || x.heads.Len() != 0 {
			t.Fatalf("drained relation: Len %d, %d heads", r.Len(), x.heads.Len())
		}
	}
}
