package cq

import (
	"testing"
)

func TestTemplateSharedAcrossConstantValues(t *testing.T) {
	q1 := MustParseQuery("q(X) :- r(X,a)")
	q2 := MustParseQuery("q(Y) :- r(Y,b)")
	t1, t2 := CanonicalizeTemplate(q1), CanonicalizeTemplate(q2)
	if t1.Fingerprint() != t2.Fingerprint() {
		t.Fatalf("templates differ:\n%s\n%s", t1.Query, t2.Query)
	}
	if len(t1.Params) != 1 || len(t2.Params) != 1 {
		t.Fatalf("params = %v / %v, want one each", t1.Params, t2.Params)
	}
	if t1.Args[0] != "a" || t2.Args[0] != "b" {
		t.Fatalf("args = %v / %v", t1.Args, t2.Args)
	}
	if TemplateFingerprint(q1) != t1.Fingerprint() {
		t.Fatal("TemplateFingerprint disagrees with Template.Fingerprint")
	}
}

func TestTemplateSharedAcrossAlphaVariants(t *testing.T) {
	q1 := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y), t(c7,Z)")
	q2 := MustParseQuery("q(A,B) :- s(C,B), t(c9,C), r(A,C)")
	t1, t2 := CanonicalizeTemplate(q1), CanonicalizeTemplate(q2)
	if t1.Fingerprint() != t2.Fingerprint() {
		t.Fatalf("α-variant templates differ:\n%s params=%v\n%s params=%v",
			t1.Query, t1.Params, t2.Query, t2.Params)
	}
	if len(t1.Args) != 1 || t1.Args[0] != "c7" || t2.Args[0] != "c9" {
		t.Fatalf("args = %v / %v", t1.Args, t2.Args)
	}
}

func TestTemplateDistinguishesEqualityPatterns(t *testing.T) {
	// One constant in two positions vs two distinct constants: the shared
	// placeholder carries the equality, so the templates must differ.
	q1 := MustParseQuery("q(X) :- r(X,a), s(a,X)")
	q2 := MustParseQuery("q(X) :- r(X,a), s(b,X)")
	t1, t2 := CanonicalizeTemplate(q1), CanonicalizeTemplate(q2)
	if t1.Fingerprint() == t2.Fingerprint() {
		t.Fatal("equality pattern lost in template")
	}
	if len(t1.Params) != 1 || len(t2.Params) != 2 {
		t.Fatalf("params = %v / %v, want 1 and 2", t1.Params, t2.Params)
	}
	// ...but two queries with the same pattern share, whatever the value.
	q3 := MustParseQuery("q(X) :- r(X,z9), s(z9,X)")
	if CanonicalizeTemplate(q3).Fingerprint() != t1.Fingerprint() {
		t.Fatal("same-pattern template not shared")
	}
}

func TestTemplateDistinguishesParamFromVariable(t *testing.T) {
	// A constant position and a don't-care variable position canonicalise
	// to the same query text; the placeholder set must keep them apart.
	withConst := MustParseQuery("q(X) :- r(X,a)")
	withVar := MustParseQuery("q(X) :- r(X,Y)")
	tc, tv := CanonicalizeTemplate(withConst), CanonicalizeTemplate(withVar)
	if tc.Query.String() != tv.Query.String() {
		t.Fatalf("canonical texts differ: %s vs %s", tc.Query, tv.Query)
	}
	if tc.Fingerprint() == tv.Fingerprint() {
		t.Fatal("placeholder set not part of the template identity")
	}
}

func TestTemplateKeepsHeadOnlyConstants(t *testing.T) {
	q1 := MustParseQuery("q(tag1,X) :- r(X,Y)")
	q2 := MustParseQuery("q(tag2,X) :- r(X,Y)")
	t1, t2 := CanonicalizeTemplate(q1), CanonicalizeTemplate(q2)
	if len(t1.Params) != 0 {
		t.Fatalf("head-only constant abstracted: params=%v", t1.Params)
	}
	if t1.Fingerprint() == t2.Fingerprint() {
		t.Fatal("head-only constants must stay part of the template")
	}
}

func TestTemplateKeepsComparisonOnlyConstants(t *testing.T) {
	q1 := MustParseQuery("q(X) :- r(X,Y), Y < 5")
	q2 := MustParseQuery("q(X) :- r(X,Y), Y < 9")
	t1, t2 := CanonicalizeTemplate(q1), CanonicalizeTemplate(q2)
	if len(t1.Params) != 0 {
		t.Fatalf("comparison threshold abstracted: params=%v", t1.Params)
	}
	if t1.Fingerprint() == t2.Fingerprint() {
		t.Fatal("comparison thresholds must stay part of the template")
	}
}

func TestTemplateAbstractsHeadButNotComparisonOccurrences(t *testing.T) {
	// The constant occurs in the body, so its head occurrence becomes the
	// same placeholder — but the comparison occurrence stays concrete
	// (thresholds are part of the template identity: a ground comparison
	// must stay decidable at plan time).
	q1 := MustParseQuery("q(c5,X) :- r(X,c5), X < c5")
	t1 := CanonicalizeTemplate(q1)
	if len(t1.Params) != 1 {
		t.Fatalf("params = %v, want exactly one placeholder", t1.Params)
	}
	for _, a := range t1.Query.Head.Args {
		if a.IsConst() {
			t.Fatalf("head constant not abstracted: %s", t1.Query)
		}
	}
	for _, c := range t1.Query.Comparisons {
		if c.Left.IsVar() && c.Right.IsVar() {
			t.Fatalf("comparison constant abstracted: %s", t1.Query)
		}
	}
	// A different threshold is a different template...
	q2 := MustParseQuery("q(c8,Y) :- r(Y,c8), Y < c8")
	if CanonicalizeTemplate(q2).Fingerprint() == t1.Fingerprint() {
		t.Fatal("different comparison thresholds share a template")
	}
	// ...but a different atom constant under the same threshold shares.
	q3 := MustParseQuery("q(c9,X) :- r(X,c9), X < c5")
	t3 := CanonicalizeTemplate(q3)
	if t3.Fingerprint() != t1.Fingerprint() {
		t.Fatalf("same-threshold templates differ:\n%s\n%s", t1.Query, t3.Query)
	}
	if t3.Args[0] != "c9" || t1.Args[0] != "c5" {
		t.Fatalf("bindings = %v / %v", t1.Args, t3.Args)
	}
}

func TestTemplateWithoutConstantsIsCanonicalForm(t *testing.T) {
	q := MustParseQuery("q(X,Y) :- r(X,Z), s(Z,Y)")
	tmpl := CanonicalizeTemplate(q)
	if len(tmpl.Params) != 0 || len(tmpl.Args) != 0 {
		t.Fatalf("params = %v args = %v, want none", tmpl.Params, tmpl.Args)
	}
	if tmpl.Query.String() != Canonicalize(q).String() {
		t.Fatalf("template %s != canonical %s", tmpl.Query, Canonicalize(q))
	}
	if tmpl.PlanQuery() != tmpl.Query {
		t.Fatal("parameterless PlanQuery should be the template itself")
	}
}

func TestTemplatePlanQuery(t *testing.T) {
	q := MustParseQuery("q(X) :- r(X,k1), s(k2,X)")
	tmpl := CanonicalizeTemplate(q)
	pq := tmpl.PlanQuery()
	if len(pq.Head.Args) != 1+len(tmpl.Params) {
		t.Fatalf("plan head %s, want original plus %d placeholders", pq.Head, len(tmpl.Params))
	}
	if err := pq.Validate(); err != nil {
		t.Fatalf("plan query invalid: %v", err)
	}
	// Appending must not mutate the template.
	if len(tmpl.Query.Head.Args) != 1 {
		t.Fatal("PlanQuery mutated the template head")
	}
	// Binding order is deterministic: params ascend by canonical index and
	// correspond positionally to Args.
	for i := 1; i < len(tmpl.Params); i++ {
		if canonIndex(tmpl.Params[i-1]) >= canonIndex(tmpl.Params[i]) {
			t.Fatalf("params out of order: %v", tmpl.Params)
		}
	}
}

// TestTemplateInstantiationRoundTrip substitutes Args back into the
// template and checks the result is α-equivalent to the source query (same
// fingerprint).
func TestTemplateInstantiationRoundTrip(t *testing.T) {
	queries := []string{
		"q(X) :- r(X,a)",
		"q(c5,X) :- r(X,c5), X < c5",
		"q(X,Y) :- r(X,Z), s(Z,Y), t(c7,Z)",
		"q(X) :- r(X,a), s(a,X)",
		"q(X) :- r(X,a), s(b,X)",
		"q(X) :- r(X,Y), Y < 5",
	}
	for _, text := range queries {
		q := MustParseQuery(text)
		tmpl := CanonicalizeTemplate(q)
		bind := make(Subst, len(tmpl.Params))
		for i, p := range tmpl.Params {
			bind[p] = Const(tmpl.Args[i])
		}
		inst := bind.ApplyQuery(tmpl.Query)
		if Fingerprint(inst) != Fingerprint(q) {
			t.Fatalf("%s: instantiated template %s is not α-equivalent", text, inst)
		}
	}
}
