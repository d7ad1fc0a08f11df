package datalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// Differential property test for the compiled semi-naive fixpoint: on
// randomized recursive programs — transitive closures (linear and
// nonlinear), cycles, mutually recursive predicates, Skolem heads, head
// constants, comparisons, don't-care columns — the compiled evaluator must
// produce exactly the same relation sets as the interpretive baseline,
// relation by relation.

// randomProgDB builds a random EDB over a small domain: a binary edge
// relation (cyclic with probability ~1/2), a unary node set, a node→number
// relation, and a ternary relation with low-cardinality columns.
func randomProgDB(rng *rand.Rand) *storage.Database {
	db := storage.NewDatabase()
	nodes := 3 + rng.Intn(5)
	node := func(i int) string { return fmt.Sprintf("n%d", i) }
	edges := 2 + rng.Intn(3*nodes)
	for i := 0; i < edges; i++ {
		db.Insert("e", storage.Tuple{node(rng.Intn(nodes)), node(rng.Intn(nodes))})
	}
	if rng.Intn(2) == 0 {
		// Guarantee a cycle through node 0.
		mid := rng.Intn(nodes)
		db.Insert("e", storage.Tuple{node(0), node(mid)})
		db.Insert("e", storage.Tuple{node(mid), node(0)})
	}
	for i := 0; i < 1+rng.Intn(nodes); i++ {
		db.Insert("u", storage.Tuple{node(rng.Intn(nodes))})
	}
	for i := 0; i < 2+rng.Intn(8); i++ {
		db.Insert("m", storage.Tuple{node(rng.Intn(nodes)), fmt.Sprint(rng.Intn(10))})
	}
	for i := 0; i < 2+rng.Intn(10); i++ {
		db.Insert("t3", storage.Tuple{node(rng.Intn(nodes)), fmt.Sprint(rng.Intn(3)), fmt.Sprint(rng.Intn(3))})
	}
	return db
}

// progTemplates are rule-group generators. Each returns the rules of one
// group, with IDB predicate names suffixed by the group instance index so
// independent groups never collide.
var progTemplates = []func(rng *rand.Rand, sfx string) []Rule{
	// Linear transitive closure, optionally with the delta-unfriendly
	// atom order (IDB atom second) and a nonlinear variant.
	func(rng *rand.Rand, sfx string) []Rule {
		tc := "tc" + sfx
		rules := []Rule{RuleFromQuery(mustQ(tc + "(X,Y) :- e(X,Y)"))}
		switch rng.Intn(3) {
		case 0:
			rules = append(rules, RuleFromQuery(mustQ(tc+"(X,Z) :- "+tc+"(X,Y), e(Y,Z)")))
		case 1:
			rules = append(rules, RuleFromQuery(mustQ(tc+"(X,Z) :- e(X,Y), "+tc+"(Y,Z)")))
		default:
			rules = append(rules, RuleFromQuery(mustQ(tc+"(X,Z) :- "+tc+"(X,Y), "+tc+"(Y,Z)")))
		}
		return rules
	},
	// Mutually recursive even/odd reachability.
	func(rng *rand.Rand, sfx string) []Rule {
		odd, even := "odd"+sfx, "even"+sfx
		return []Rule{
			RuleFromQuery(mustQ(odd + "(X,Y) :- e(X,Y)")),
			RuleFromQuery(mustQ(even + "(X,Z) :- " + odd + "(X,Y), e(Y,Z)")),
			RuleFromQuery(mustQ(odd + "(X,Z) :- " + even + "(X,Y), e(Y,Z)")),
		}
	},
	// Skolem heads from EDB bodies (the inverse-rules shape) plus a
	// consumer joining through the Skolem values, sometimes recursively.
	func(rng *rand.Rand, sfx string) []Rule {
		r, s, j := "r"+sfx, "s"+sfx, "j"+sfx
		f := &Skolem{Name: "f" + sfx, Args: []string{"X"}}
		rules := []Rule{
			{
				HeadPred: r,
				Head:     []HeadTerm{{Term: cq.Var("X")}, {Skolem: f}},
				Body:     []cq.Atom{cq.NewAtom("u", cq.Var("X"))},
			},
			{
				HeadPred: s,
				Head:     []HeadTerm{{Skolem: f}},
				Body:     []cq.Atom{cq.NewAtom("u", cq.Var("X"))},
			},
			RuleFromQuery(mustQ(j + "(X) :- " + r + "(X,W), " + s + "(W)")),
		}
		if rng.Intn(2) == 0 {
			// Close the Skolem-carrying relation transitively over edges.
			rules = append(rules, RuleFromQuery(mustQ(r+"(Y,W) :- "+r+"(X,W), e(X,Y)")))
		}
		return rules
	},
	// Head constants and a body constant.
	func(rng *rand.Rand, sfx string) []Rule {
		tag := "tag" + sfx
		rules := []Rule{RuleFromQuery(mustQ(tag + "(X,lbl" + sfx + ") :- e(X,Y)"))}
		if rng.Intn(2) == 0 {
			rules = append(rules, RuleFromQuery(mustQ(tag+"(Y,seen) :- e(n0,Y)")))
		}
		return rules
	},
	// Comparisons: var-vs-const and var-vs-var at random depths, on a
	// recursive predicate so comparisons meet the delta variants too.
	func(rng *rand.Rand, sfx string) []Rule {
		big, pair := "big"+sfx, "pair"+sfx
		q1 := mustQ(big + "(A,B) :- m(A,B)")
		q1.AddComparison(cq.NewComparison(cq.Var("B"), cq.CompOp(rng.Intn(6)), cq.IntConst(int64(rng.Intn(10)))))
		q2 := mustQ(pair + "(A,B) :- m(X,A), m(X,B)")
		q2.AddComparison(cq.NewComparison(cq.Var("A"), cq.Lt, cq.Var("B")))
		rules := []Rule{RuleFromQuery(q1), RuleFromQuery(q2)}
		if rng.Intn(2) == 0 {
			q3 := mustQ(pair + "(A,C) :- " + pair + "(A,B), " + pair + "(B,C)")
			q3.AddComparison(cq.NewComparison(cq.Var("A"), cq.Le, cq.Var("C")))
			rules = append(rules, RuleFromQuery(q3))
		}
		return rules
	},
	// Don't-care columns and repeated variables within an atom.
	func(rng *rand.Rand, sfx string) []Rule {
		proj, loop := "proj"+sfx, "loop"+sfx
		return []Rule{
			RuleFromQuery(mustQ(proj + "(X) :- t3(X,F1,F2)")),
			RuleFromQuery(mustQ(loop + "(X) :- e(X,X)")),
			RuleFromQuery(mustQ(loop + "(Y) :- " + loop + "(X), e(X,Y), e(Y,X)")),
		}
	},
}

// randomProgram assembles 1–3 template groups into one program, shuffling
// rule order (fixpoints are order-independent; the evaluators must be too).
func randomProgram(rng *rand.Rand, trial int) *Program {
	groups := 1 + rng.Intn(3)
	var rules []Rule
	for g := 0; g < groups; g++ {
		tpl := progTemplates[rng.Intn(len(progTemplates))]
		rules = append(rules, tpl(rng, fmt.Sprintf("_%d_%d", trial, g))...)
	}
	rng.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
	return newProgram(rules...)
}

// randomLayeredProgram builds a program of exactly three strata over the
// randomProgDB schema, each level drawing its rules at random:
//
//   - stratum 0 reads only base relations: a copy of e, optionally
//     filtered by a comparison, Skolem-headed rules in the inverse-rules
//     shape, and rules deriving u — a predicate that is also a base
//     relation, so its base facts seed the derived one;
//   - stratum 1 is recursive over stratum 0 (linear, nonlinear or mutual
//     recursion), optionally joining through the Skolem values;
//   - stratum 2 reads stratum 1 and the derived u, optionally under a
//     comparison.
func randomLayeredProgram(rng *rand.Rand) *Program {
	f := &Skolem{Name: "f", Args: []string{"X"}}
	b0 := mustQ("b0(X,Y) :- e(X,Y)")
	if rng.Intn(2) == 0 {
		b0.AddComparison(cq.NewComparison(cq.Var("X"), cq.CompOp(rng.Intn(6)), cq.Var("Y")))
	}
	rules := []Rule{
		RuleFromQuery(b0),
		{HeadPred: "sr", Head: []HeadTerm{{Term: cq.Var("X")}, {Skolem: f}}, Body: []cq.Atom{cq.NewAtom("t3", cq.Var("X"), cq.Var("A"), cq.Var("B"))}},
		{HeadPred: "ss", Head: []HeadTerm{{Skolem: f}, {Term: cq.Var("A")}}, Body: []cq.Atom{cq.NewAtom("t3", cq.Var("X"), cq.Var("A"), cq.Var("B"))}},
		RuleFromQuery(mustQ("u(X) :- m(X,N)")),
	}
	switch rng.Intn(3) {
	case 0:
		rules = append(rules,
			RuleFromQuery(mustQ("mid(X,Y) :- b0(X,Y)")),
			RuleFromQuery(mustQ("mid(X,Z) :- mid(X,Y), b0(Y,Z)")))
	case 1:
		rules = append(rules,
			RuleFromQuery(mustQ("mid(X,Y) :- b0(X,Y)")),
			RuleFromQuery(mustQ("mid(X,Z) :- mid(X,Y), mid(Y,Z)")))
	default:
		rules = append(rules,
			RuleFromQuery(mustQ("odd(X,Y) :- b0(X,Y)")),
			RuleFromQuery(mustQ("mid(X,Z) :- odd(X,Y), b0(Y,Z)")),
			RuleFromQuery(mustQ("odd(X,Z) :- mid(X,Y), b0(Y,Z)")))
	}
	if rng.Intn(2) == 0 {
		// Skolem values join only with the Skolem values they were built
		// from: sr(X,W), ss(W,A) pairs X with the t3 columns of X's rows.
		rules = append(rules, RuleFromQuery(mustQ("mid(X,A) :- sr(X,W), ss(W,A), mid(X,Y)")))
	}
	top := mustQ("top(X,Y) :- mid(X,Y), u(Y)")
	if rng.Intn(2) == 0 {
		top.AddComparison(cq.NewComparison(cq.Var("X"), cq.CompOp(rng.Intn(6)), cq.Var("Y")))
	}
	rules = append(rules, RuleFromQuery(top))
	rng.Shuffle(len(rules), func(i, j int) { rules[i], rules[j] = rules[j], rules[i] })
	return newProgram(rules...)
}

// TestCompiledProgramLayeredDifferential runs random three-stratum programs
// through the stratified executor — plain and maintenance compilations —
// and requires every derived relation and the
// Derived count to equal the interpreter's unstratified semi-naive run.
func TestCompiledProgramLayeredDifferential(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 50
	}
	rng := rand.New(rand.NewSource(0x57A7))
	for trial := 0; trial < trials; trial++ {
		db := randomProgDB(rng)
		prog := randomLayeredProgram(rng)
		want, err := prog.EvalInterp(db)
		if err != nil {
			t.Fatalf("trial %d: interp: %v\n%s", trial, err, prog)
		}
		idb := make(map[string]bool)
		wantDerived := 0
		for _, r := range prog.Rules {
			if !idb[r.HeadPred] {
				idb[r.HeadPred] = true
				wantDerived += want.Relation(r.HeadPred).Len()
				if rel := db.Relation(r.HeadPred); rel != nil {
					wantDerived -= rel.Len()
				}
			}
		}
		for _, compile := range []func(*Program, *cost.Catalog) (*CompiledProgram, error){CompileProgram, CompileProgramIVM} {
			cp, err := compile(prog, cost.NewRowCatalog(db))
			if err != nil {
				t.Fatalf("trial %d: compile: %v\n%s", trial, err, prog)
			}
			if d := cp.Describe(); !strings.Contains(d, "(stratum 2)") || strings.Contains(d, "(stratum 3)") {
				t.Fatalf("trial %d: want three strata:\n%s", trial, d)
			}
			for pred := range idb {
				got, stats, err := cp.EvalRelation(db, pred, 1)
				if err != nil {
					t.Fatalf("trial %d: eval: %v\n%s", trial, err, prog)
				}
				if wt := want.Relation(pred).Tuples(); !storage.TuplesEqual(got, wt) {
					t.Fatalf("trial %d (ivm %v): relation %s diverges:\n  compiled: %v\n  interp:   %v\n%s", trial, cp.ivm, pred, got, wt, prog)
				}
				if stats.Derived != wantDerived {
					t.Fatalf("trial %d (ivm %v): Derived = %d, interp derived %d\n%s", trial, cp.ivm, stats.Derived, wantDerived, prog)
				}
			}
		}
	}
}

// diffDatabases fails the test if any relation differs between the two
// result databases (exact set equality, both directions).
func diffDatabases(t *testing.T, label string, got, want *storage.Database) {
	t.Helper()
	preds := make(map[string]bool)
	for _, p := range got.Predicates() {
		preds[p] = true
	}
	for _, p := range want.Predicates() {
		preds[p] = true
	}
	for p := range preds {
		var gt, wt []storage.Tuple
		if r := got.Relation(p); r != nil {
			gt = r.Tuples()
		}
		if r := want.Relation(p); r != nil {
			wt = r.Tuples()
		}
		if !storage.TuplesEqual(gt, wt) {
			t.Fatalf("%s: relation %s diverges:\n  compiled: %v\n  interp:   %v", label, p, gt, wt)
		}
	}
}

func TestCompiledProgramDifferential(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 100
	}
	rng := rand.New(rand.NewSource(0xF1C5))
	for trial := 0; trial < trials; trial++ {
		db := randomProgDB(rng)
		prog := randomProgram(rng, trial)

		want, err := prog.EvalInterp(db)
		if err != nil {
			t.Fatalf("trial %d: interp: %v\n%s", trial, err, prog)
		}
		cp, err := CompileProgram(prog, cost.NewRowCatalog(db))
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, prog)
		}
		got, err := cp.Eval(db)
		if err != nil {
			t.Fatalf("trial %d: compiled eval: %v\n%s", trial, err, prog)
		}
		diffDatabases(t, fmt.Sprintf("trial %d (seq)\n%s", trial, prog), got, want)

		// The catalog only steers join order; a full-statistics catalog
		// must give identical answers.
		if trial%7 == 0 {
			db.BuildIndexes()
			cp2, err := CompileProgram(prog, cost.NewCatalog(db))
			if err != nil {
				t.Fatalf("trial %d: compile(full catalog): %v", trial, err)
			}
			got2, err := cp2.Eval(db)
			if err != nil {
				t.Fatalf("trial %d: eval(full catalog): %v", trial, err)
			}
			diffDatabases(t, fmt.Sprintf("trial %d (full catalog)\n%s", trial, prog), got2, want)
		}
	}
}
