package containment

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cq"
)

// This file keeps the map-based mapping search the package used before the
// slice-indexed Search replaced it (PR 18), as the reference the new search
// is fuzzed against: same existence, same number of mappings, same mappings
// in the same order.

func refFindAllMappings(from, to *cq.Query, yield func(Mapping) bool) {
	if len(from.Head.Args) != len(to.Head.Args) {
		return
	}
	s := cq.NewSubst()
	for i, ft := range from.Head.Args {
		tt := to.Head.Args[i]
		if ft.IsVar() {
			if !s.Bind(ft.Lex, tt) {
				return
			}
		} else if ft != tt {
			return
		}
	}
	newRefSearch(from, to).step(0, s, yield)
}

func refFindBodyMappings(from, to *cq.Query, initial cq.Subst, yield func(Mapping) bool) {
	s := cq.NewSubst()
	for k, v := range initial {
		s[k] = v
	}
	newRefSearch(from, to).step(0, s, yield)
}

type refSearch struct {
	atoms   []cq.Atom            // source atoms in search order
	targets map[string][]cq.Atom // target atoms by predicate
}

func newRefSearch(from, to *cq.Query) *refSearch {
	targets := make(map[string][]cq.Atom)
	for _, a := range to.Body {
		targets[a.Pred] = append(targets[a.Pred], a)
	}
	n := len(from.Body)
	atoms := make([]cq.Atom, 0, n)
	used := make([]bool, n)
	bound := make(map[string]bool)
	for len(atoms) < n {
		best, bestBound, bestCand := -1, -1, 0
		for i, a := range from.Body {
			if used[i] {
				continue
			}
			nb := 0
			for _, t := range a.Args {
				if t.IsConst() || bound[t.Lex] {
					nb++
				}
			}
			cand := len(targets[a.Pred])
			if best == -1 || nb > bestBound || nb == bestBound && cand < bestCand {
				best, bestBound, bestCand = i, nb, cand
			}
		}
		used[best] = true
		atoms = append(atoms, from.Body[best])
		for _, t := range from.Body[best].Args {
			if t.IsVar() {
				bound[t.Lex] = true
			}
		}
	}
	return &refSearch{atoms: atoms, targets: targets}
}

func (s *refSearch) step(i int, subst cq.Subst, yield func(Mapping) bool) bool {
	if i == len(s.atoms) {
		return yield(subst)
	}
	atom := s.atoms[i]
	for _, target := range s.targets[atom.Pred] {
		trail := refMatchWithTrail(subst, atom, target)
		if trail == nil {
			continue
		}
		if !s.step(i+1, subst, yield) {
			return false
		}
		refUndo(subst, trail)
	}
	return true
}

func refMatchWithTrail(subst cq.Subst, pattern, target cq.Atom) []string {
	if pattern.Pred != target.Pred || len(pattern.Args) != len(target.Args) {
		return nil
	}
	trail := make([]string, 0, len(pattern.Args))
	for i := range pattern.Args {
		pt, tt := pattern.Args[i], target.Args[i]
		if pt.IsVar() {
			if old, ok := subst[pt.Lex]; ok {
				if old != tt {
					refUndo(subst, trail)
					return nil
				}
				continue
			}
			subst[pt.Lex] = tt
			trail = append(trail, pt.Lex)
			continue
		}
		if pt != tt {
			refUndo(subst, trail)
			return nil
		}
	}
	return trail
}

func refUndo(subst cq.Subst, trail []string) {
	for _, v := range trail {
		delete(subst, v)
	}
}

// fuzzQuery decodes a small conjunctive query from data: up to four body
// atoms over p/2, q/2, r/1 and s/3 (t is used with two arities, so that
// arity mismatches between source and target occur), arguments drawn from
// five variables and two constants so that repeated variables and constants
// are frequent, and a head of up to three such terms. It returns the unread
// bytes.
func fuzzQuery(data []byte) (*cq.Query, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	term := func() cq.Term {
		switch k := next() % 7; k {
		case 5:
			return cq.Const("a")
		case 6:
			return cq.Const("b")
		default:
			return cq.Var(fmt.Sprintf("X%d", k))
		}
	}
	preds := []struct {
		name  string
		arity int
	}{{"p", 2}, {"q", 2}, {"r", 1}, {"s", 3}, {"t", 1}, {"t", 2}}
	q := &cq.Query{Head: cq.Atom{Pred: "h"}}
	for i, n := 0, next()%4; i < n; i++ {
		q.Head.Args = append(q.Head.Args, term())
	}
	for i, n := 0, 1+next()%4; i < n; i++ {
		p := preds[next()%len(preds)]
		a := cq.Atom{Pred: p.name}
		for j := 0; j < p.arity; j++ {
			a.Args = append(a.Args, term())
		}
		q.Body = append(q.Body, a)
	}
	return q, data
}

// collect runs an enumeration and renders the mappings it yields, in order.
func collect(enum func(yield func(Mapping) bool)) []string {
	var out []string
	enum(func(m Mapping) bool {
		out = append(out, m.String())
		return len(out) < 64
	})
	return out
}

func checkAgainstReference(t *testing.T, from, to *cq.Query) {
	t.Helper()
	want := collect(func(y func(Mapping) bool) { refFindAllMappings(from, to, y) })
	got := collect(func(y func(Mapping) bool) { FindAllMappings(from, to, y) })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("FindAllMappings\n from %s\n   to %s\n got %v\nwant %v", from, to, got, want)
	}
	first, ok := findMapping(from, to)
	if ok != (len(want) > 0) || ok && first.String() != want[0] {
		t.Fatalf("findMapping from %s to %s = %v, %v; reference %v", from, to, first, ok, want)
	}
	var s Search
	if got := s.Maps(Prepare(from), to); got != (len(want) > 0) {
		t.Fatalf("Maps from %s to %s = %v; reference %v", from, to, got, want)
	}
	// AtomMappings: the same mappings in the same order, each rendered as
	// the target atom every source atom lands on.
	var wantAt, gotAt []string
	refFindAllMappings(from, to, func(m Mapping) bool {
		var images []string
		for _, a := range from.Body {
			images = append(images, m.ApplyAtom(a).String())
		}
		wantAt = append(wantAt, fmt.Sprint(images))
		return len(wantAt) < 64
	})
	s.AtomMappings(Prepare(from), to, nil, func(at []int32) bool {
		var images []string
		for _, j := range at {
			images = append(images, to.Body[j].String())
		}
		gotAt = append(gotAt, fmt.Sprint(images))
		return len(gotAt) < 64
	})
	if fmt.Sprint(gotAt) != fmt.Sprint(wantAt) {
		t.Fatalf("AtomMappings\n from %s\n   to %s\n got %v\nwant %v", from, to, gotAt, wantAt)
	}
	// AtomMappings under a filter: exactly the unfiltered mappings that send
	// every source atom i onto targets b with allow[b] == i, in order.
	if len(from.Body) > 0 {
		allow := make([]int32, len(to.Body))
		for j := range allow {
			allow[j] = int32(j % len(from.Body))
		}
		var all, filtered []string
		s.AtomMappings(Prepare(from), to, nil, func(at []int32) bool {
			for i, j := range at {
				if allow[j] != int32(i) {
					return true
				}
			}
			all = append(all, fmt.Sprint(at))
			return true
		})
		s.AtomMappings(Prepare(from), to, allow, func(at []int32) bool {
			filtered = append(filtered, fmt.Sprint(at))
			return true
		})
		if fmt.Sprint(filtered) != fmt.Sprint(all) {
			t.Fatalf("AtomMappings filtered by %v\n from %s\n   to %s\n got %v\nwant %v", allow, from, to, filtered, all)
		}
	}
	// BodyMappings: at names the atom each source atom's image is.
	n := cq.Number(from)
	s.BodyMappings(&n, to, func(at []int32) bool {
		m := cq.NewSubst()
		s.fill(m)
		for i, a := range from.Body {
			if img := m.ApplyAtom(a); !img.Equal(to.Body[at[i]]) {
				t.Fatalf("BodyMappings from %s to %s: atom %d maps to %s, at names %s", from, to, i, img, to.Body[at[i]])
			}
		}
		return true
	})
	// The body-only search, seeded with a binding for X0 when the reference
	// admits one.
	for _, initial := range []cq.Subst{nil, {"X0": cq.Const("a")}, {"Z": cq.Var("X1")}} {
		want = collect(func(y func(Mapping) bool) { refFindBodyMappings(from, to, initial, y) })
		got = collect(func(y func(Mapping) bool) { findBodyMappings(from, to, initial, y) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("findBodyMappings(%v)\n from %s\n   to %s\n got %v\nwant %v", initial, from, to, got, want)
		}
	}
}

// FuzzFindMapping checks the slice-indexed search against the map-based
// reference on random small queries with constants and repeated variables:
// the mappings, the target atom AtomMappings reports for each source atom,
// and existence as Maps decides it.
func FuzzFindMapping(f *testing.F) {
	f.Add([]byte{2, 0, 1, 2, 0, 0, 1, 1, 1, 2}) // a chain
	f.Add([]byte{0, 3, 0, 0, 0, 0, 5, 2, 6, 1, 0, 0, 0, 3, 0, 0, 5, 2, 1})
	f.Add([]byte{1, 5, 1, 3, 0, 5, 1, 1, 5, 1, 3, 5, 5, 1})
	f.Add([]byte{3, 0, 0, 1, 2, 4, 0, 5, 1, 1, 3, 0, 1, 2, 4, 0, 4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		from, rest := fuzzQuery(data)
		to, _ := fuzzQuery(rest)
		checkAgainstReference(t, from, to)
		checkAgainstReference(t, to, from)
		checkAgainstReference(t, from, from)
	})
}

// TestSearchAgainstReference runs the fuzz property over a seeded batch, so
// that plain `go test` exercises it too.
func TestSearchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	data := make([]byte, 40)
	for i := 0; i < 3000; i++ {
		rng.Read(data)
		from, rest := fuzzQuery(data)
		to, _ := fuzzQuery(rest)
		checkAgainstReference(t, from, to)
	}
}

// TestSearchReuse checks that one Search gives the same answers however many
// tests of differing sizes it has run before.
func TestSearchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 40)
	var s Search
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		a, rest := fuzzQuery(data)
		b, _ := fuzzQuery(rest)
		if got, want := s.contained(a, Prepare(b)), Contained(a, b); got != want {
			t.Fatalf("reused search: %s ⊑ %s = %v, fresh search says %v", a, b, got, want)
		}
	}
}
