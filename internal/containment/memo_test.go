package containment

import (
	"sync"
	"testing"

	"repro/internal/cq"
)

// memoContained reports q2 ⊑ q1 through a Search that consults m.
func memoContained(m *Memo, q2, q1 *cq.Query) bool {
	s := Search{Memo: m}
	return s.Contained(Prepare(q2), Prepare(q1))
}

func TestMemoContainedAgreesAndHits(t *testing.T) {
	m := NewMemo()
	q1 := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	q2 := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y), t(X)")
	// α-variant of q2: must hit the same memo entry.
	q2b := cq.MustParseQuery("q(A,B) :- t(A), s(C,B), r(A,C)")

	if got, want := memoContained(m, q2, q1), Contained(q2, q1); got != want {
		t.Fatalf("memo Contained = %v, direct = %v", got, want)
	}
	if got, want := memoContained(m, q2b, q1), Contained(q2b, q1); got != want {
		t.Fatalf("memo Contained (α-variant) = %v, direct = %v", got, want)
	}
	hits, misses := m.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (α-variant should hit)", hits, misses)
	}
	if len(m.contained) != 1 {
		t.Fatalf("%d decisions cached, want 1", len(m.contained))
	}
}

func TestMemoEquivalent(t *testing.T) {
	s := Search{Memo: NewMemo()}
	a := Prepare(cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)"))
	b := Prepare(cq.MustParseQuery("q(U,V) :- s(W,V), r(U,W)"))
	if !s.Equivalent(a, b) {
		t.Fatal("α-equivalent queries reported not equivalent")
	}
	c := Prepare(cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Y,Z)"))
	if s.Equivalent(a, c) {
		t.Fatal("different join patterns reported equivalent")
	}
}

func TestNilMemoDelegates(t *testing.T) {
	var m *Memo
	a := cq.MustParseQuery("q(X) :- r(X,Y)")
	b := cq.MustParseQuery("q(X) :- r(X,Y), r(Y,Z)")
	if got, want := memoContained(m, b, a), Contained(b, a); got != want {
		t.Fatalf("nil memo Contained = %v, want %v", got, want)
	}
	if h, miss := m.Stats(); h != 0 || miss != 0 {
		t.Fatal("nil memo stats should be zero")
	}
}

func TestMemoConcurrent(t *testing.T) {
	m := NewMemo()
	a := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	b := cq.MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y), t(Z)")
	want := Contained(b, a)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if memoContained(m, b, a) != want {
					t.Error("concurrent memo answer changed")
					return
				}
			}
		}()
	}
	wg.Wait()
}
