package datalog

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// buildHeadTuple is the reference head emitter headScratch replaced: a
// fresh tuple per frame, every Skolem value built by skolemValue.
func buildHeadTuple(head []ruleHeadOp, frame []string) storage.Tuple {
	t := make(storage.Tuple, len(head))
	for i, h := range head {
		switch {
		case h.skolem != nil:
			parts := make([]string, len(h.skolem.argSlots))
			for j, s := range h.skolem.argSlots {
				parts[j] = frame[s]
			}
			t[i] = skolemValue(h.skolem.name, parts)
		case h.slot >= 0:
			t[i] = frame[h.slot]
		default:
			t[i] = h.constVal
		}
	}
	return t
}

// TestHeadScratchMatchesReference: on seeded random heads mixing Skolem,
// slot and constant columns, the head-row scratch builds exactly
// buildHeadTuple's row, and skolemValue is the tagged form
// "⟨name:arg1␟arg2…⟩" — so the compiled emitter, the interpreter and storage
// agree on every derived value. Every owned row is kept, as emitVariant's
// buffer keeps it, and must still read as built once the scratch has built
// every later row over the same buffer.
func TestHeadScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	values := []string{"", "a", "b7", "⟨g:x⟩", "x\x1fy", "a-much-longer-value-0123456789"}
	var hs headScratch // reused across trials, as within one emitter
	var kept, wants []storage.Tuple
	for trial := 0; trial < 1000; trial++ {
		frame := make([]string, 1+rng.Intn(5))
		for i := range frame {
			frame[i] = values[rng.Intn(len(values))]
		}
		head := make([]ruleHeadOp, rng.Intn(5))
		for i := range head {
			switch rng.Intn(3) {
			case 0:
				cs := &compiledSkolem{name: fmt.Sprint("f", rng.Intn(3)), argSlots: make([]int, rng.Intn(4))}
				for j := range cs.argSlots {
					cs.argSlots[j] = rng.Intn(len(frame))
				}
				head[i] = ruleHeadOp{skolem: cs, slot: -1}
			case 1:
				head[i] = ruleHeadOp{slot: rng.Intn(len(frame))}
			default:
				head[i] = ruleHeadOp{slot: -1, constVal: values[rng.Intn(len(values))]}
			}
		}
		want := buildHeadTuple(head, frame)
		if got := hs.build(head, frame); got.Compare(want) != 0 {
			t.Fatalf("trial %d: row %q, want %q", trial, got, want)
		}
		kept = append(kept, slices.Clone(hs.own(head)))
		wants = append(wants, want)
		for i, h := range head {
			if h.skolem == nil {
				continue
			}
			parts := make([]string, len(h.skolem.argSlots))
			for j, s := range h.skolem.argSlots {
				parts[j] = frame[s]
			}
			if tagged := "⟨" + h.skolem.name + ":" + strings.Join(parts, "\x1f") + "⟩"; want[i] != tagged {
				t.Fatalf("trial %d: skolemValue = %q, want %q", trial, want[i], tagged)
			}
		}
	}
	for i := range kept {
		if kept[i].Compare(wants[i]) != 0 {
			t.Fatalf("trial %d: the kept row reads %q after later builds, want %q", i, kept[i], wants[i])
		}
	}
}

// TestEmitVariantRejectsWithoutAllocating: when every body match re-derives
// a tuple the maintained relation already holds, the emitter allocates
// nothing per match — 100 matches cost what 1 000 cost — for a plain head
// and for a Skolem head.
func TestEmitVariantRejectsWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	skolem := &Skolem{Name: "f", Args: []string{"A", "B"}}
	rules := []Rule{
		RuleFromQuery(mustQ("p(A,B) :- v(A,B)")),
		{HeadPred: "p", Head: []HeadTerm{{Term: cq.Var("A")}, {Skolem: skolem}}, Body: mustQ("p(A,B) :- v(A,B)").Body},
	}
	for _, r := range rules {
		v := compileRuleVariant(r, -1, &cost.Catalog{})
		allocs := make(map[int]float64)
		for _, n := range []int{100, 1000} {
			db := storage.NewDatabase()
			for i := 0; i < n; i++ {
				db.Insert("v", storage.Tuple{fmt.Sprintf("a%05d", i), fmt.Sprintf("b%05d", i)})
			}
			derived, err := emitVariant(&v, nil, db, nil, nil, func(storage.Tuple) bool { return true })
			if err != nil {
				t.Fatalf("%s: %v", r, err)
			}
			if derived.set.Len() != n {
				t.Fatalf("%s: %d derived, want %d", r, derived.set.Len(), n)
			}
			held := storage.NewRelation("p", 2)
			for _, d := range derived.set.Rows() {
				held.Insert(d)
			}
			derived.release()
			allocs[n] = testing.AllocsPerRun(20, func() {
				buf, err := emitVariant(&v, nil, db, nil, nil, func(h storage.Tuple) bool { return !held.Contains(h) })
				if err != nil || buf.set.Len() != 0 {
					t.Fatalf("%s: re-derived %d tuple(s), err = %v", r, buf.set.Len(), err)
				}
				buf.release()
			})
		}
		if allocs[100] != allocs[1000] {
			t.Fatalf("%s: %.0f allocs at 100 matches, %.0f at 1 000", r, allocs[100], allocs[1000])
		}
	}
}
