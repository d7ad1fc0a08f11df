package cq

import (
	"math/rand"
	"strings"
	"testing"
)

func TestCanonicalizeRenamesAndSorts(t *testing.T) {
	q := MustParseQuery("q(X,Y) :- s(Z,Y), r(X,Z)")
	c := Canonicalize(q)
	if got := c.String(); got != "q(V0,V1) :- r(V0,V2), s(V2,V1)." {
		t.Fatalf("canonical form = %q", got)
	}
	// The input query is untouched.
	if q.String() != "q(X,Y) :- s(Z,Y), r(X,Z)." {
		t.Fatalf("input mutated: %q", q.String())
	}
}

func TestFingerprintAlphaEquivalence(t *testing.T) {
	// Pairs of α-equivalent queries: renamed variables, reordered subgoals,
	// reordered and flipped comparisons.
	pairs := [][2]string{
		{
			"q(X,Y) :- r(X,Z), s(Z,Y)",
			"q(A,B) :- s(C,B), r(A,C)",
		},
		{
			"q(X) :- r(X,Y), r(Y,Z), r(Z,X)",
			"q(U) :- r(W,U), r(U,V), r(V,W)",
		},
		{
			"q(X,Y) :- r(X,Z), s(Z,Y), Z < 5, X != Y",
			"q(P,Q) :- s(R,Q), r(P,R), Q != P, 5 > R",
		},
		{
			// Symmetric disconnected subgoals: the tie-exploring ordering
			// must not depend on which copy appears first.
			"q(X) :- t(X), r(A,B), r(B,C)",
			"q(X) :- t(X), r(P,Q), r(O,P)",
		},
		{
			"q(X) :- r(X,'a'), r(X,X)",
			"q(W) :- r(W,W), r(W,'a')",
		},
	}
	for _, pair := range pairs {
		a, b := MustParseQuery(pair[0]), MustParseQuery(pair[1])
		fa, fb := Fingerprint(a), Fingerprint(b)
		if fa != fb {
			t.Errorf("fingerprints differ for α-equivalent queries:\n  %s -> %s (%s)\n  %s -> %s (%s)",
				pair[0], fa, Canonicalize(a), pair[1], fb, Canonicalize(b))
		}
	}
}

func TestFingerprintSeparatesDifferentQueries(t *testing.T) {
	distinct := []string{
		"q(X,Y) :- r(X,Z), s(Z,Y)",
		"q(X,Y) :- r(X,Z), s(Y,Z)", // different join pattern
		"q(Y,X) :- r(X,Z), s(Z,Y)", // head swapped
		"p(X,Y) :- r(X,Z), s(Z,Y)", // different head predicate
		"q(X,Y) :- r(X,Z), s(Z,Y), Z < 5",
		"q(X,X) :- r(X,Z), s(Z,X)", // head repetition
		"q(X,Y) :- r(X,Z), s(Z,Y), r(X,X)",
	}
	seen := make(map[string]string)
	for _, src := range distinct {
		fp := Fingerprint(MustParseQuery(src))
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %q and %q -> %s", prev, src, fp)
		}
		seen[fp] = src
	}
}

// TestFingerprintRandomized shuffles subgoals and consistently renames
// variables many times; every variant must share one fingerprint.
func TestFingerprintRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := MustParseQuery("q(X,Y) :- r(X,A), r(A,B), s(B,Y), t(A,C), t(B,C), C < 9")
	want := Fingerprint(base)
	vars := base.Vars()
	for trial := 0; trial < 200; trial++ {
		v := base.Clone()
		// Consistent random renaming.
		sub := NewSubst()
		perm := rng.Perm(len(vars))
		for i, old := range vars {
			sub.Bind(old.Lex, Var("Z"+strings.Repeat("z", perm[i])+"W"))
		}
		v = sub.ApplyQuery(v)
		// Shuffle body atoms.
		rng.Shuffle(len(v.Body), func(i, j int) { v.Body[i], v.Body[j] = v.Body[j], v.Body[i] })
		if got := Fingerprint(v); got != want {
			t.Fatalf("trial %d: fingerprint %s != %s for variant %s", trial, got, want, v)
		}
	}
}

func TestCanonicalizeUnion(t *testing.T) {
	u1 := NewUnion(
		MustParseQuery("q(X) :- r(X,Y)"),
		MustParseQuery("q(X) :- s(X)"),
	)
	u2 := NewUnion(
		MustParseQuery("q(A) :- s(A)"),
		MustParseQuery("q(B) :- r(B,C)"),
	)
	if CanonicalizeUnion(u1).String() != CanonicalizeUnion(u2).String() {
		t.Fatalf("union canonical forms differ:\n%s\n--\n%s", CanonicalizeUnion(u1), CanonicalizeUnion(u2))
	}
	if CanonicalizeUnion(nil).Len() != 0 {
		t.Fatal("nil union should canonicalise to empty")
	}
}

// TestCanonicalAllocs holds the canonicaliser to its allocation budgets. A
// fingerprint allocates its key and nothing else: the scratch is pooled and
// the canonical query is written as bytes, never built. A template
// allocates itself and the query it returns in one object, one array for
// every argument, one for the body, its binding and its key: 5 (budget 6;
// 6 while the template and its query were two objects, budget 12). The
// string-building canonicaliser made 46 and 60.
func TestCanonicalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,W), t(W,Y)")
	if got := testing.AllocsPerRun(100, func() { Fingerprint(q) }); got > 1 {
		t.Errorf("Fingerprint: %.0f allocs, budget 1", got)
	}
	tq := MustParseQuery("q(X3) :- p7(c0,X1), p8(X1,X2), p1(X2,X3)")
	if got := testing.AllocsPerRun(100, func() { CanonicalizeTemplate(tq).Fingerprint() }); got > 6 {
		t.Errorf("CanonicalizeTemplate(q).Fingerprint(): %.0f allocs, budget 6", got)
	}
}

// TestParseAllocs holds ParseQuery to what the query it returns keeps: the
// parser collects a rule in pooled scratch and copies it out into one
// array of terms, one of body atoms and the query, 3 for a four-atom query
// (budget 4). It made 14 while every atom appended its own arguments and
// the rule its body.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const src = "q(X,Y) :- r(X,Z), s(Z,W), t(W,Y), u(Y,c)."
	if got := testing.AllocsPerRun(100, func() { MustParseQuery(src) }); got > 4 {
		t.Errorf("ParseQuery: %.0f allocs, budget 4", got)
	}
}
