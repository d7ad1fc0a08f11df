package containment

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cq"
)

func mustQ(src string) *cq.Query { return cq.MustParseQuery(src) }

func TestFindMappingIdentity(t *testing.T) {
	q := mustQ("q(X,Y) :- r(X,Z), s(Z,Y)")
	m, ok := FindMapping(q, q)
	if !ok {
		t.Fatal("no identity mapping")
	}
	for _, v := range q.Vars() {
		if m.ApplyTerm(v) != v {
			t.Fatalf("identity mapping maps %v to %v", v, m.ApplyTerm(v))
		}
	}
}

func TestFindMappingBasic(t *testing.T) {
	// q2 = q1 with an extra join: q2 ⊑ q1, witnessed by mapping q1 -> q2.
	q1 := mustQ("q(X) :- r(X,Y)")
	q2 := mustQ("q(X) :- r(X,Y), r(Y,Z)")
	if _, ok := FindMapping(q1, q2); !ok {
		t.Fatal("expected mapping q1 -> q2")
	}
	if _, ok := FindMapping(q2, q1); ok {
		t.Fatal("unexpected mapping q2 -> q1 (r(Y,Z) has no image)")
	}
}

func TestFindMappingSelfJoinCollapse(t *testing.T) {
	// Classic: path of length 2 maps onto a self-loop.
	path := mustQ("q(X) :- e(X,Y), e(Y,Z)")
	loop := mustQ("q(X) :- e(X,X)")
	if _, ok := FindMapping(path, loop); !ok {
		t.Fatal("path should map onto self-loop (collapse Y,Z to X)")
	}
	if _, ok := FindMapping(loop, path); ok {
		t.Fatal("self-loop must not map onto path")
	}
}

func TestFindMappingHeadConstants(t *testing.T) {
	a := mustQ("q(a) :- r(a)")
	b := mustQ("q(a) :- r(a), s(b)")
	if _, ok := FindMapping(a, b); !ok {
		t.Fatal("head constants should match")
	}
	c := mustQ("q(b) :- r(b)")
	if _, ok := FindMapping(a, c); ok {
		t.Fatal("distinct head constants matched")
	}
}

func TestFindMappingArityMismatch(t *testing.T) {
	a := mustQ("q(X) :- r(X)")
	b := mustQ("q(X,Y) :- r(X), r(Y)")
	if _, ok := FindMapping(a, b); ok {
		t.Fatal("head arity mismatch accepted")
	}
}

func TestFindMappingConstantsInBody(t *testing.T) {
	gen := mustQ("q(X) :- r(X,Y)")
	spec := mustQ("q(X) :- r(X,5)")
	if _, ok := FindMapping(gen, spec); !ok {
		t.Fatal("variable should map to constant")
	}
	if _, ok := FindMapping(spec, gen); ok {
		t.Fatal("constant must not map to variable")
	}
}

func TestFindAllMappingsCount(t *testing.T) {
	// Two r-atoms, pattern r(X,Y) with free X,Y (head constant): both
	// targets usable.
	from := mustQ("q(c) :- r(X,Y)")
	to := mustQ("q(c) :- r(a,b), r(b,d)")
	if n := CountMappings(from, to); n != 2 {
		t.Fatalf("CountMappings = %d want 2", n)
	}
}

func TestFindAllMappingsEarlyStop(t *testing.T) {
	from := mustQ("q(c) :- r(X,Y)")
	to := mustQ("q(c) :- r(a,b), r(b,d)")
	calls := 0
	FindAllMappings(from, to, func(Mapping) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early stop ignored, calls = %d", calls)
	}
}

func TestFindBodyMappings(t *testing.T) {
	view := mustQ("v(A) :- r(A,B), s(B)")
	query := mustQ("q(X) :- r(X,Y), s(Y), t(X)")
	n := 0
	FindBodyMappings(view, query, nil, func(m Mapping) bool {
		if m.ApplyTerm(cq.Var("A")) != cq.Var("X") || m.ApplyTerm(cq.Var("B")) != cq.Var("Y") {
			t.Errorf("unexpected mapping %v", m)
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("body mappings = %d want 1", n)
	}
	// Initial bindings are respected.
	n = 0
	FindBodyMappings(view, query, cq.Subst{"A": cq.Var("Z")}, func(Mapping) bool {
		n++
		return true
	})
	if n != 0 {
		t.Fatal("initial binding ignored")
	}
}

func TestContainedPureCQ(t *testing.T) {
	cases := []struct {
		q2, q1 string
		want   bool
	}{
		// Specialisation is contained in generalisation.
		{"q(X) :- r(X,Y), r(Y,Z)", "q(X) :- r(X,Y)", true},
		{"q(X) :- r(X,Y)", "q(X) :- r(X,Y), r(Y,Z)", false},
		// Equivalent modulo renaming.
		{"q(A) :- r(A,B)", "q(X) :- r(X,Y)", true},
		// Different predicates.
		{"q(X) :- r(X)", "q(X) :- s(X)", false},
		// Constant specialisation.
		{"q(X) :- r(X,5)", "q(X) :- r(X,Y)", true},
		{"q(X) :- r(X,Y)", "q(X) :- r(X,5)", false},
		// Head projection matters.
		{"q(X,Y) :- r(X,Y)", "q(X,X) :- r(X,X)", false},
		{"q(X,X) :- r(X,X)", "q(X,Y) :- r(X,Y)", true},
	}
	for _, c := range cases {
		q2, q1 := mustQ(c.q2), mustQ(c.q1)
		if got := Contained(q2, q1); got != c.want {
			t.Errorf("Contained(%q ⊑ %q) = %v want %v", c.q2, c.q1, got, c.want)
		}
	}
}

func TestEquivalentPureCQ(t *testing.T) {
	a := mustQ("q(X) :- r(X,Y), r(X,Z)")
	b := mustQ("q(X) :- r(X,Y)")
	if !Equivalent(a, b) {
		t.Fatal("redundant self-join should be equivalent to single atom")
	}
	c := mustQ("q(X) :- r(X,Y), r(Y,X)")
	if Equivalent(b, c) {
		t.Fatal("cycle query equivalent to edge query")
	}
}

func TestContainedSoundComparisons(t *testing.T) {
	cases := []struct {
		q2, q1 string
		want   bool
	}{
		// Tighter range contained in looser.
		{"q(X) :- r(X), X > 5", "q(X) :- r(X), X > 3", true},
		{"q(X) :- r(X), X > 3", "q(X) :- r(X), X > 5", false},
		// Equality implies both bounds.
		{"q(X) :- r(X), X = 4", "q(X) :- r(X), X >= 4", true},
		// Unsatisfiable query contained in anything.
		{"q(X) :- r(X), X < 2, X > 3", "q(X) :- s(X)", true},
		// Variable-to-variable comparisons.
		{"q(X,Y) :- r(X,Y), X < Y", "q(X,Y) :- r(X,Y), X <= Y", true},
		{"q(X,Y) :- r(X,Y), X <= Y", "q(X,Y) :- r(X,Y), X < Y", false},
	}
	for _, c := range cases {
		q2, q1 := mustQ(c.q2), mustQ(c.q1)
		if got := ContainedSound(q2, q1); got != c.want {
			t.Errorf("ContainedSound(%q ⊑ %q) = %v want %v", c.q2, c.q1, got, c.want)
		}
		// The complete test must agree whenever the sound test says yes.
		if c.want && !ContainedComplete(q2, q1) {
			t.Errorf("complete test disagrees with sound yes on (%q ⊑ %q)", c.q2, c.q1)
		}
	}
}

func TestContainedCompleteBeatsSound(t *testing.T) {
	// Classical witness that the single-mapping test is incomplete:
	//   Q1: q() :- r(U,V), U <= V
	//   Q2: q() :- r(X,Y), r(Y,X)
	// Q2 ⊑ Q1: in any model, either X <= Y (map (U,V)->(X,Y)) or
	// Y <= X (map (U,V)->(Y,X)); different linearisations need
	// different mappings, so no single mapping works.
	q1 := mustQ("q() :- r(U,V), U <= V")
	q2 := mustQ("q() :- r(X,Y), r(Y,X)")
	if ContainedSound(q2, q1) {
		t.Fatal("sound test unexpectedly succeeded — witness broken")
	}
	if !ContainedComplete(q2, q1) {
		t.Fatal("complete test failed on the classical multi-mapping witness")
	}
	if !Contained(q2, q1) {
		t.Fatal("Contained should dispatch to the complete test")
	}
}

func TestContainedCompleteNegative(t *testing.T) {
	q1 := mustQ("q(X) :- r(X), X > 5")
	q2 := mustQ("q(X) :- r(X), X > 3")
	if ContainedComplete(q2, q1) {
		t.Fatal("X>3 contained in X>5?")
	}
}

func TestContainedCompleteWithConstants(t *testing.T) {
	// q2's range (3,5) sits inside q1's range (2,6): containment holds
	// and requires ordering constants of both queries.
	q1 := mustQ("q(X) :- r(X), X > 2, X < 6")
	q2 := mustQ("q(X) :- r(X), X > 3, X < 5")
	if !ContainedComplete(q2, q1) {
		t.Fatal("(3,5) should be contained in (2,6)")
	}
	if ContainedComplete(q1, q2) {
		t.Fatal("(2,6) contained in (3,5)?")
	}
}

func TestMinimize(t *testing.T) {
	cases := []struct {
		src      string
		wantLen  int
		wantComp int
	}{
		{"q(X) :- r(X,Y), r(X,Z)", 1, 0},
		{"q(X) :- r(X,Y), r(Y,Z), r(X,W)", 2, 0},
		{"q(X) :- e(X,Y), e(Y,Z), e(X,X)", 1, 0}, // collapses onto loop
		{"q(X,Y) :- r(X,Y)", 1, 0},
		{"q(X) :- r(X,Y), X < Y, X <= Y", 1, 1},  // implied comparison dropped
		{"q(X) :- r(X,Y), r(Y,X), r(X,Z)", 2, 0}, // r(X,Z) redundant via Y
	}
	for _, c := range cases {
		q := mustQ(c.src)
		m := Minimize(q)
		if len(m.Body) != c.wantLen || len(m.Comparisons) != c.wantComp {
			t.Errorf("Minimize(%q) = %v (len %d, comps %d) want len %d comps %d",
				c.src, m, len(m.Body), len(m.Comparisons), c.wantLen, c.wantComp)
		}
		if !Equivalent(q, m) {
			t.Errorf("Minimize(%q) not equivalent: %v", c.src, m)
		}
		if q.String() == "" {
			t.Error("original mutated")
		}
	}
}

func TestMinimizeKeepsNonRedundant(t *testing.T) {
	q := mustQ("q(X) :- r(X,Y), s(Y,Z)")
	m := Minimize(q)
	if len(m.Body) != 2 {
		t.Fatalf("non-redundant atoms removed: %v", m)
	}
	if !IsMinimal(q) {
		t.Fatal("IsMinimal false on minimal query")
	}
	if IsMinimal(mustQ("q(X) :- r(X,Y), r(X,Z)")) {
		t.Fatal("IsMinimal true on redundant query")
	}
}

func TestFreeze(t *testing.T) {
	q := mustQ("q(X) :- r(X,Y), s(Y,a)")
	facts, head := Freeze(q)
	if len(facts) != 2 {
		t.Fatalf("facts = %v", facts)
	}
	for _, f := range facts {
		if !f.IsGround() {
			t.Fatalf("frozen fact not ground: %v", f)
		}
	}
	if !head.IsGround() {
		t.Fatalf("frozen head not ground: %v", head)
	}
	// Constants survive freezing unchanged.
	if facts[1].Args[1] != cq.Const("a") {
		t.Fatalf("constant renamed: %v", facts[1])
	}
}

// Property: containment is reflexive.
func TestQuickContainmentReflexive(t *testing.T) {
	f := func(a, b, c uint8) bool {
		q := genQuery(a, b, c)
		return Contained(q, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Minimize preserves equivalence and is idempotent.
func TestQuickMinimizeEquivalentIdempotent(t *testing.T) {
	f := func(a, b, c uint8) bool {
		q := genQuery(a, b, c)
		m := Minimize(q)
		if !Equivalent(q, m) {
			return false
		}
		m2 := Minimize(m)
		return len(m2.Body) == len(m.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding an atom can only specialise (q+atom ⊑ q).
func TestQuickAddingAtomSpecialises(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		q := genQuery(a, b, c)
		ext := q.Clone()
		vars := q.Vars()
		v1 := vars[int(d)%len(vars)]
		v2 := vars[int(d/16)%len(vars)]
		ext.Body = append(ext.Body, cq.NewAtom("extra", v1, v2))
		return Contained(ext, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// genQuery builds a deterministic pseudo-random pure CQ from fuzz bytes.
func genQuery(a, b, c uint8) *cq.Query {
	preds := []string{"r", "s", "t"}
	nAtoms := int(a)%4 + 1
	nVars := int(b)%4 + 2
	vars := make([]cq.Term, nVars)
	for i := range vars {
		vars[i] = cq.Var("V" + string(rune('0'+i)))
	}
	body := make([]cq.Atom, nAtoms)
	for i := range body {
		p := preds[(int(c)+i)%len(preds)]
		body[i] = cq.NewAtom(p, vars[(int(c)+i)%nVars], vars[(int(c)+i+1)%nVars])
	}
	return &cq.Query{Head: cq.NewAtom("q", body[0].Args[0]), Body: body}
}

// TestCanonicalizeBeyondTieBudget covers the canonicaliser's documented
// limit. Once its tie budget is spent, the subgoal order it picks depends on
// the input order, so shuffles of one 14-atom single-predicate graph may get
// different fingerprints: they can miss each other's plan-cache and memo
// entries. What must hold regardless is that every canonical form is
// equivalent to its query, so a key can only ever name a correct entry.
func TestCanonicalizeBeyondTieBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	split := 0
	for g := 0; g < 20; g++ {
		q := &cq.Query{Head: cq.NewAtom("q", cq.Var("X0"))}
		for range 14 {
			q.Body = append(q.Body, cq.NewAtom("e",
				cq.Var(fmt.Sprintf("X%d", rng.Intn(14))), cq.Var(fmt.Sprintf("X%d", rng.Intn(14)))))
		}
		keys := make(map[string]bool)
		for range 6 {
			v := q.Clone()
			rng.Shuffle(len(v.Body), func(i, j int) { v.Body[i], v.Body[j] = v.Body[j], v.Body[i] })
			c := cq.Canonicalize(v)
			if !Equivalent(c, v) || !Equivalent(c, q) {
				t.Fatalf("canonical form %s is not equivalent to %s", c, v)
			}
			keys[cq.Fingerprint(v)] = true
		}
		if len(keys) > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("every graph kept one key: the test no longer reaches past the tie budget")
	}
	t.Logf("%d of 20 graphs got more than one key across 6 shuffles", split)
}
