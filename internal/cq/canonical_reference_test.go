package cq

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file keeps the string-building canonicaliser the package used before
// the scratch-buffer one replaced it, as the reference the new one is fuzzed
// against (FuzzCanonical, TestCanonicalMatchesReference): same canonical
// query, same fingerprint, same template. Every persisted key — a data
// directory's view-set fingerprint, a client's prepared handle — was written
// by this code, so the two must agree byte for byte, beyond the tie budget
// too.

func refCanonicalize(q *Query) *Query {
	qc, _ := refCanonicalizeRen(q)
	return qc
}

func refCanonicalizeRen(q *Query) (*Query, map[string]string) {
	ren := make(map[string]string, 8)
	next := 0
	rename := func(t Term) Term {
		if !t.IsVar() {
			return t
		}
		n, ok := ren[t.Lex]
		if !ok {
			n = "V" + strconv.Itoa(next)
			next++
			ren[t.Lex] = n
		}
		return Term{Kind: Variable, Lex: n}
	}

	head := Atom{Pred: q.Head.Pred, Args: make([]Term, len(q.Head.Args))}
	for i, t := range q.Head.Args {
		head.Args[i] = rename(t)
	}

	c := &refCanonicalizer{budget: canonBudget}
	remaining := make([]Atom, len(q.Body))
	copy(remaining, q.Body)
	body, ren, next := c.orderBody(remaining, ren, next)

	comps := make([]Comparison, len(q.Comparisons))
	for i, cmp := range q.Comparisons {
		nc := Comparison{Op: cmp.Op}
		for _, side := range []struct {
			src Term
			dst *Term
		}{{cmp.Left, &nc.Left}, {cmp.Right, &nc.Right}} {
			t := side.src
			if t.IsVar() {
				n, ok := ren[t.Lex]
				if !ok {
					n = "V" + strconv.Itoa(next)
					next++
					ren[t.Lex] = n
				}
				t = Term{Kind: Variable, Lex: n}
			}
			*side.dst = t
		}
		comps[i] = nc.Normalize()
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].String() < comps[j].String() })

	return &Query{Head: head, Body: body, Comparisons: comps}, ren
}

// refKey is how Fingerprint and Template.Fingerprint hashed a rendering.
func refKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

type refCanonicalizer struct {
	budget int
}

func (c *refCanonicalizer) orderBody(remaining []Atom, ren map[string]string, next int) ([]Atom, map[string]string, int) {
	if len(remaining) == 0 {
		return nil, ren, next
	}
	minKey := ""
	var tied []int
	for i, a := range remaining {
		k := refProjectedKey(a, ren)
		switch {
		case i == 0 || k < minKey:
			minKey = k
			tied = tied[:0]
			tied = append(tied, i)
		case k == minKey:
			tied = append(tied, i)
		}
	}
	if len(tied) > 1 && c.budget <= 0 {
		tied = tied[:1]
	}

	var bestBody []Atom
	var bestRen map[string]string
	var bestNext int
	bestStr := ""
	for _, idx := range tied {
		c.budget--
		branchRen := ren
		branchNext := next
		if len(tied) > 1 {
			branchRen = make(map[string]string, len(ren)+2)
			for k, v := range ren {
				branchRen[k] = v
			}
		}
		a := remaining[idx]
		na := Atom{Pred: a.Pred, Args: make([]Term, len(a.Args))}
		for i, t := range a.Args {
			if t.IsVar() {
				n, ok := branchRen[t.Lex]
				if !ok {
					n = "V" + strconv.Itoa(branchNext)
					branchNext++
					branchRen[t.Lex] = n
				}
				na.Args[i] = Term{Kind: Variable, Lex: n}
			} else {
				na.Args[i] = t
			}
		}
		rest := make([]Atom, 0, len(remaining)-1)
		rest = append(rest, remaining[:idx]...)
		rest = append(rest, remaining[idx+1:]...)
		tailBody, tailRen, tailNext := c.orderBody(rest, branchRen, branchNext)
		body := append([]Atom{na}, tailBody...)
		if len(tied) == 1 {
			return body, tailRen, tailNext
		}
		s := refRenderAtoms(body)
		if bestBody == nil || s < bestStr {
			bestBody, bestRen, bestNext, bestStr = body, tailRen, tailNext, s
		}
	}
	return bestBody, bestRen, bestNext
}

func refProjectedKey(a Atom, ren map[string]string) string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteByte('/')
	sb.WriteString(strconv.Itoa(len(a.Args)))
	sb.WriteByte('(')
	local := make(map[string]int, len(a.Args))
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		switch {
		case t.IsConst():
			sb.WriteString("c:")
			sb.WriteString(t.Lex)
		default:
			if n, ok := ren[t.Lex]; ok {
				sb.WriteString("v:")
				sb.WriteString(n)
			} else {
				j, ok := local[t.Lex]
				if !ok {
					j = len(local)
					local[t.Lex] = j
				}
				sb.WriteString("u:")
				sb.WriteString(strconv.Itoa(j))
			}
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

func refRenderAtoms(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// refTmplPrefix marks the placeholder variables refCanonicalizeTemplate
// substitutes for constants before canonicalising.
const refTmplPrefix = "\x00$"

func refCanonicalizeTemplate(q *Query) *Template {
	abstractable := refBodyConstants(q)
	if len(abstractable) == 0 {
		return &Template{Query: refCanonicalize(q)}
	}
	sub := func(t Term) Term {
		if t.IsConst() && abstractable[t.Lex] {
			return Term{Kind: Variable, Lex: refTmplPrefix + t.Lex}
		}
		return t
	}
	g := q.Clone()
	for i, t := range g.Head.Args {
		g.Head.Args[i] = sub(t)
	}
	for ai := range g.Body {
		for i, t := range g.Body[ai].Args {
			g.Body[ai].Args[i] = sub(t)
		}
	}

	ct, ren := refCanonicalizeRen(g)
	tmpl := &Template{Query: ct}
	for c := range abstractable {
		tmpl.Params = append(tmpl.Params, ren[refTmplPrefix+c])
		tmpl.Args = append(tmpl.Args, c)
	}
	sort.Sort(&byCanonIndex{tmpl.Params, tmpl.Args})
	return tmpl
}

func refBodyConstants(q *Query) map[string]bool {
	set := make(map[string]bool)
	for _, a := range q.Body {
		for _, t := range a.Args {
			if t.IsConst() {
				set[t.Lex] = true
			}
		}
	}
	return set
}

type byCanonIndex struct {
	params []string
	args   []string
}

func (s *byCanonIndex) Len() int { return len(s.params) }
func (s *byCanonIndex) Less(i, j int) bool {
	return canonIndex(s.params[i]) < canonIndex(s.params[j])
}
func (s *byCanonIndex) Swap(i, j int) {
	s.params[i], s.params[j] = s.params[j], s.params[i]
	s.args[i], s.args[j] = s.args[j], s.args[i]
}

// canonIndex parses the numeric index of a canonical variable name V<i>.
func canonIndex(name string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(name, "V"))
	return n
}

// refTemplateFingerprint is Template.Fingerprint as it was.
func refTemplateFingerprint(t *Template) string {
	return refKey(t.Query.String() + "\x00" + strings.Join(t.Params, ","))
}

// checkCanonical fails t unless every canonical form and key of q matches
// the reference's.
func checkCanonical(t *testing.T, q *Query) {
	t.Helper()
	want, got := refCanonicalize(q), Canonicalize(q)
	if !reflect.DeepEqual(got, want) || got.String() != want.String() {
		t.Fatalf("Canonicalize(%s):\n got  %s\n want %s", q, got, want)
	}
	if got, want := Fingerprint(q), refKey(want.String()); got != want {
		t.Fatalf("Fingerprint(%s) = %s, reference %s", q, got, want)
	}
	if got, want := ConcreteTemplate(q).Fingerprint(), refTemplateFingerprint(&Template{Query: want}); got != want {
		t.Fatalf("ConcreteTemplate(%s).Fingerprint() = %s, reference %s", q, got, want)
	}
	wt, gt := refCanonicalizeTemplate(q), CanonicalizeTemplate(q)
	if !reflect.DeepEqual(gt.Query, wt.Query) || !reflect.DeepEqual(gt.Params, wt.Params) || !reflect.DeepEqual(gt.Args, wt.Args) {
		t.Fatalf("CanonicalizeTemplate(%s):\n got  %s %v %v\n want %s %v %v", q, gt.Query, gt.Params, gt.Args, wt.Query, wt.Params, wt.Args)
	}
	want2 := refTemplateFingerprint(wt)
	if got := gt.Fingerprint(); got != want2 {
		t.Fatalf("CanonicalizeTemplate(%s).Fingerprint() = %s, reference %s", q, got, want2)
	}
	if got := TemplateFingerprint(q); got != want2 {
		t.Fatalf("TemplateFingerprint(%s) = %s, reference %s", q, got, want2)
	}
}

// FuzzCanonical checks the canonicaliser against the reference on parsed
// queries: the canonical query, its rendering, the fingerprint and the
// template with its binding and key.
func FuzzCanonical(f *testing.F) {
	seeds := []string{
		"q(X,Y) :- r(X,Z), s(Z,Y).",
		"q(X) :- t(X), r(A,B), r(B,C).",              // symmetric tie
		"q() :- e(A,B), e(B,C), e(C,D), e(D,A).",     // symmetric cycle
		"q(tag,X) :- r(X,Y).",                        // head-only constant
		"q(X) :- X < 5, 'b' = X.",                    // comparison-only
		"q(X) :- r(X,'hello world'), s('Big',X,'').", // quoted constants
		"q(X) :- r(X), Y > X, Z != Y.",               // unsafe comparison variables
		"q(c5,X) :- r(X,c5), X < c5, c5 >= X.",
		"q(X) :- r(X,a), s(a,X), r(X,b).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(1))
	f.Add(budgetQuery(rng).String()) // 14 atoms over one predicate
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		checkCanonical(t, q)
	})
}

// TestCanonicalMatchesReference checks the canonicaliser against the
// reference on seeded random queries, a few of them past the tie budget.
func TestCanonicalMatchesReference(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 5_000
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < n; i++ {
		checkCanonical(t, randomQuery(rng))
	}
}

// randomQuery draws a query over a few predicates, variables and constants:
// repeated atoms, symmetric ties, quoted and numeric constants, constants in
// the head, unsafe comparison variables, and one time in 2 000 a query past
// the tie budget.
func randomQuery(rng *rand.Rand) *Query {
	if rng.Intn(2000) == 0 {
		return budgetQuery(rng)
	}
	vars := []string{"X", "Y", "Z", "W", "A1", "A10", "A2", "_u", "B", "C", "D", "E"}
	consts := []string{"a", "b", "c0", "10", "2", "-3.5", "hello world", "V0", "", "x,y"}
	nv := 1 + rng.Intn(len(vars))
	term := func() Term {
		if rng.Intn(5) == 0 {
			return Const(consts[rng.Intn(len(consts))])
		}
		return Var(vars[rng.Intn(nv)])
	}
	preds := []struct {
		name  string
		arity int
	}{{"e", 2}, {"e", 2}, {"r", 2}, {"s", 1}, {"t", 3}, {"p", 0}}
	q := &Query{Head: Atom{Pred: "q"}}
	for range rng.Intn(8) {
		p := preds[rng.Intn(len(preds))]
		a := Atom{Pred: p.name, Args: make([]Term, p.arity)}
		for i := range a.Args {
			a.Args[i] = term()
		}
		q.Body = append(q.Body, a)
	}
	for range rng.Intn(4) {
		q.Head.Args = append(q.Head.Args, term())
	}
	for range rng.Intn(4) {
		q.Comparisons = append(q.Comparisons, Comparison{Left: term(), Op: CompOp(rng.Intn(6)), Right: term()})
	}
	return q
}

// budgetQuery draws 14-atom graphs over one binary predicate and fourteen
// variables until one has enough mutually symmetric subgoals to exhaust the
// tie budget.
func budgetQuery(rng *rand.Rand) *Query {
	for {
		q := &Query{Head: Atom{Pred: "q", Args: []Term{Var("X0")}}}
		for range 14 {
			q.Body = append(q.Body, NewAtom("e", Var(fmt.Sprintf("X%d", rng.Intn(14))), Var(fmt.Sprintf("X%d", rng.Intn(14)))))
		}
		s := canonicalise(q, false)
		spent := s.budget <= 0
		s.release()
		if spent {
			return q
		}
	}
}
