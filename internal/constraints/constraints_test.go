package constraints

import (
	"testing"
	"testing/quick"

	"repro/internal/cq"
)

func comp(l string, op cq.CompOp, r string) cq.Comparison {
	return cq.Comparison{Left: term(l), Op: op, Right: term(r)}
}

// term interprets upper-case-initial names as variables, others as constants.
func term(s string) cq.Term {
	if s == "" {
		return cq.Const("")
	}
	c := s[0]
	if c >= 'A' && c <= 'Z' || c == '_' {
		return cq.Var(s)
	}
	return cq.Const(s)
}

func TestSatisfiableBasic(t *testing.T) {
	cases := []struct {
		comps []cq.Comparison
		want  bool
	}{
		{nil, true},
		{[]cq.Comparison{comp("X", cq.Lt, "Y")}, true},
		{[]cq.Comparison{comp("X", cq.Lt, "Y"), comp("Y", cq.Lt, "X")}, false},
		{[]cq.Comparison{comp("X", cq.Lt, "X")}, false},
		{[]cq.Comparison{comp("X", cq.Le, "Y"), comp("Y", cq.Le, "X")}, true},
		{[]cq.Comparison{comp("X", cq.Le, "Y"), comp("Y", cq.Le, "X"), comp("X", cq.Ne, "Y")}, false},
		{[]cq.Comparison{comp("X", cq.Eq, "Y"), comp("X", cq.Ne, "Y")}, false},
		{[]cq.Comparison{comp("X", cq.Lt, "Y"), comp("Y", cq.Lt, "Z"), comp("Z", cq.Lt, "X")}, false},
		{[]cq.Comparison{comp("X", cq.Ge, "Y"), comp("Y", cq.Gt, "X")}, false},
	}
	for _, c := range cases {
		s := NewSet(c.comps)
		if got := s.Satisfiable(); got != c.want {
			t.Errorf("Satisfiable(%v) = %v want %v", c.comps, got, c.want)
		}
	}
}

func TestSatisfiableWithConstants(t *testing.T) {
	cases := []struct {
		comps []cq.Comparison
		want  bool
	}{
		{[]cq.Comparison{comp("X", cq.Lt, "5"), comp("X", cq.Gt, "3")}, true},
		{[]cq.Comparison{comp("X", cq.Lt, "3"), comp("X", cq.Gt, "5")}, false},
		{[]cq.Comparison{comp("X", cq.Eq, "3"), comp("X", cq.Eq, "5")}, false},
		{[]cq.Comparison{comp("3", cq.Gt, "5")}, false},
		{[]cq.Comparison{comp("3", cq.Lt, "5")}, true},
		{[]cq.Comparison{comp("a", cq.Lt, "b")}, true},
		{[]cq.Comparison{comp("b", cq.Lt, "a")}, false},
		// Density: strictly between 3 and 4 there is a value.
		{[]cq.Comparison{comp("X", cq.Gt, "3"), comp("X", cq.Lt, "4")}, true},
		{[]cq.Comparison{comp("X", cq.Eq, "3"), comp("X", cq.Ne, "3")}, false},
	}
	for _, c := range cases {
		s := NewSet(c.comps)
		if got := s.Satisfiable(); got != c.want {
			t.Errorf("Satisfiable(%v) = %v want %v", c.comps, got, c.want)
		}
	}
}

func TestImplies(t *testing.T) {
	base := []cq.Comparison{comp("X", cq.Lt, "Y"), comp("Y", cq.Le, "Z")}
	s := NewSet(base)
	cases := []struct {
		c    cq.Comparison
		want bool
	}{
		{comp("X", cq.Lt, "Z"), true},
		{comp("X", cq.Le, "Z"), true},
		{comp("X", cq.Ne, "Z"), true},
		{comp("Z", cq.Gt, "X"), true},
		{comp("X", cq.Lt, "Y"), true},
		{comp("Z", cq.Lt, "X"), false},
		{comp("Y", cq.Eq, "Z"), false},
		{comp("Y", cq.Ne, "Z"), false},
	}
	for _, c := range cases {
		if got := s.Implies(c.c); got != c.want {
			t.Errorf("%v Implies(%v) = %v want %v", base, c.c, got, c.want)
		}
	}
}

func TestImpliesWithConstants(t *testing.T) {
	s := NewSet([]cq.Comparison{comp("X", cq.Ge, "5")})
	if !s.Implies(comp("X", cq.Gt, "4")) {
		t.Error("X>=5 should imply X>4")
	}
	if !s.Implies(comp("X", cq.Ne, "3")) {
		t.Error("X>=5 should imply X!=3")
	}
	if s.Implies(comp("X", cq.Gt, "5")) {
		t.Error("X>=5 should not imply X>5")
	}
	if s.Implies(comp("X", cq.Ne, "5")) {
		t.Error("X>=5 should not imply X!=5")
	}
	// Equality chaining through a constant.
	s2 := NewSet([]cq.Comparison{comp("X", cq.Eq, "5"), comp("Y", cq.Eq, "5")})
	if !s2.Implies(comp("X", cq.Eq, "Y")) {
		t.Error("X=5, Y=5 should imply X=Y")
	}
}

func TestUnsatisfiableImpliesEverything(t *testing.T) {
	s := NewSet([]cq.Comparison{comp("X", cq.Lt, "X")})
	if !s.Implies(comp("A", cq.Eq, "B")) {
		t.Error("unsatisfiable set should imply everything")
	}
}

// TestEquivalentTo: two sets are equivalent, having the same models over
// their combined terms, when each implies every comparison of the other.
func TestEquivalentTo(t *testing.T) {
	impliesAll := func(s, u *Set) bool {
		for _, c := range u.comps {
			if !s.Implies(c) {
				return false
			}
		}
		return true
	}
	equivalent := func(s, u *Set) bool { return impliesAll(s, u) && impliesAll(u, s) }
	a := NewSet([]cq.Comparison{comp("X", cq.Lt, "Y"), comp("Y", cq.Lt, "Z")})
	b := NewSet([]cq.Comparison{comp("Y", cq.Gt, "X"), comp("Z", cq.Gt, "Y"), comp("X", cq.Lt, "Z")})
	if !equivalent(a, b) {
		t.Error("sets with same models reported different")
	}
	c := NewSet([]cq.Comparison{comp("X", cq.Le, "Y")})
	if equivalent(a, c) {
		t.Error("different sets reported equivalent")
	}
	u1 := NewSet([]cq.Comparison{comp("X", cq.Lt, "X")})
	u2 := NewSet([]cq.Comparison{comp("3", cq.Gt, "5")})
	if !equivalent(u1, u2) {
		t.Error("two unsatisfiable sets should be equivalent")
	}
}

func TestAddTermAndAccessors(t *testing.T) {
	s := NewSet([]cq.Comparison{comp("X", cq.Lt, "Y")}, term("Z"))
	if len(s.Terms()) != 3 {
		t.Fatalf("Terms = %v", s.Terms())
	}
	s.AddTerm(term("Z")) // idempotent
	if len(s.Terms()) != 3 {
		t.Fatal("AddTerm duplicated a term")
	}
	if len(s.comps) != 1 {
		t.Fatalf("comparisons = %v", s.comps)
	}
	cl := s.Clone()
	cl.Add(comp("Y", cq.Lt, "X"))
	if !s.Satisfiable() {
		t.Fatal("Clone shares state")
	}
	if cl.Satisfiable() {
		t.Fatal("clone should be unsatisfiable")
	}
	_ = s.String()
}

func TestCloneAfterCloseIsIndependent(t *testing.T) {
	s := NewSet([]cq.Comparison{comp("X", cq.Lt, "Y")})
	if !s.Satisfiable() { // forces closure
		t.Fatal("sat expected")
	}
	cl := s.Clone()
	cl.Add(comp("Y", cq.Lt, "X"))
	if cl.Satisfiable() {
		t.Fatal("clone misses added constraint")
	}
	if !s.Satisfiable() {
		t.Fatal("original polluted by clone")
	}
}

func TestLinearizationComparisons(t *testing.T) {
	l := Linearization{{term("X"), term("Y")}, {term("Z")}}
	comps := l.Comparisons()
	s := NewSet(comps)
	if !s.Implies(comp("X", cq.Eq, "Y")) || !s.Implies(comp("X", cq.Lt, "Z")) || !s.Implies(comp("Y", cq.Lt, "Z")) {
		t.Fatalf("linearization constraints wrong: %v", comps)
	}
	if l.String() != "X = Y < Z" {
		t.Fatalf("String = %q", l.String())
	}
}

// fubini returns the ordered Bell numbers 1, 1, 3, 13, 75, 541, ... which
// count total preorders of an n-element set.
func fubini(n int) int {
	switch n {
	case 0:
		return 1
	case 1:
		return 1
	case 2:
		return 3
	case 3:
		return 13
	case 4:
		return 75
	case 5:
		return 541
	}
	return -1
}

// countLinearizations returns the number of linearizations of terms
// consistent with base.
func countLinearizations(terms []cq.Term, base *Set) int {
	n := 0
	EnumerateLinearizations(terms, base, func(Linearization) bool {
		n++
		return true
	})
	return n
}

func TestEnumerateLinearizationsCount(t *testing.T) {
	for n := 1; n <= 4; n++ {
		var terms []cq.Term
		for i := 0; i < n; i++ {
			terms = append(terms, cq.Var("V"+string(rune('0'+i))))
		}
		got := countLinearizations(terms, nil)
		if want := fubini(n); got != want {
			t.Errorf("n=%d: %d linearizations, want %d (Fubini)", n, got, want)
		}
	}
}

func TestMergeSubst(t *testing.T) {
	l := Linearization{{term("X"), term("Y"), term("5")}, {term("Z")}}
	s := l.MergeSubst()
	// X and Y collapse to the constant 5; Z stays free.
	if s.ApplyTerm(term("X")) != term("5") || s.ApplyTerm(term("Y")) != term("5") {
		t.Fatalf("MergeSubst = %v", s)
	}
	if _, bound := s["Z"]; bound {
		t.Fatalf("singleton block should not bind: %v", s)
	}
	// All-variable block: first term is the representative.
	l2 := Linearization{{term("A"), term("B")}}
	s2 := l2.MergeSubst()
	if s2.ApplyTerm(term("B")) != term("A") {
		t.Fatalf("MergeSubst = %v", s2)
	}
}

func TestEnumerateLinearizationsRespectsBase(t *testing.T) {
	terms := []cq.Term{term("X"), term("Y")}
	base := NewSet([]cq.Comparison{comp("X", cq.Lt, "Y")})
	var got []string
	EnumerateLinearizations(terms, base, func(l Linearization) bool {
		got = append(got, l.String())
		return true
	})
	if len(got) != 1 || got[0] != "X < Y" {
		t.Fatalf("linearizations = %v", got)
	}
}

func TestEnumerateLinearizationsConstants(t *testing.T) {
	// Constants force their natural order; X can sit in 5 positions
	// relative to 1 < 2: before, =1, between, =2, after.
	terms := []cq.Term{term("1"), term("2"), term("X")}
	if got := countLinearizations(terms, nil); got != 5 {
		t.Fatalf("count = %d want 5", got)
	}
}

func TestEnumerateLinearizationsEarlyStop(t *testing.T) {
	terms := []cq.Term{term("X"), term("Y"), term("Z")}
	calls := 0
	EnumerateLinearizations(terms, nil, func(Linearization) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored: %d calls", calls)
	}
}

func TestEnumerateDedupesTerms(t *testing.T) {
	terms := []cq.Term{term("X"), term("X"), term("Y")}
	if got := countLinearizations(terms, nil); got != 3 {
		t.Fatalf("count = %d want 3", got)
	}
}

// Property: every enumerated linearization is consistent with the base and
// decides every pair of terms.
func TestQuickLinearizationsTotalAndConsistent(t *testing.T) {
	f := func(ltXY, ltYZ bool) bool {
		var comps []cq.Comparison
		if ltXY {
			comps = append(comps, comp("X", cq.Lt, "Y"))
		}
		if ltYZ {
			comps = append(comps, comp("Y", cq.Lt, "Z"))
		}
		base := NewSet(comps)
		terms := []cq.Term{term("X"), term("Y"), term("Z")}
		ok := true
		EnumerateLinearizations(terms, base, func(l Linearization) bool {
			s := l.Set()
			for _, c := range comps {
				if !s.Implies(c) && s.Satisfiable() {
					// The linearization must refine the base.
					full := base.Clone()
					for _, lc := range l.Comparisons() {
						full.Add(lc)
					}
					if !full.Satisfiable() {
						ok = false
					}
				}
			}
			// Totality: every pair decided.
			for i := range terms {
				for j := i + 1; j < len(terms); j++ {
					a, b := terms[i], terms[j]
					decided := s.Implies(cq.Comparison{Left: a, Op: cq.Lt, Right: b}) ||
						s.Implies(cq.Comparison{Left: b, Op: cq.Lt, Right: a}) ||
						s.Implies(cq.Comparison{Left: a, Op: cq.Eq, Right: b})
					if !decided {
						ok = false
					}
				}
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: Implies is reflexive-transitively coherent — if s implies a<b
// and b<c then it implies a<c.
func TestQuickImpliesTransitive(t *testing.T) {
	f := func(perm uint8) bool {
		names := []string{"A", "B", "C", "D"}
		i := int(perm) % 4
		comps := []cq.Comparison{
			comp(names[i], cq.Lt, names[(i+1)%4]),
			comp(names[(i+1)%4], cq.Lt, names[(i+2)%4]),
		}
		s := NewSet(comps)
		return s.Implies(comp(names[i], cq.Lt, names[(i+2)%4]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
