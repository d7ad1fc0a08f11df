package datalog

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/cq"
	"repro/internal/storage"
)

// A compiled plan is a fixed set of arrays: every step's column ops are
// windows onto one []colOp, the steps onto one []compiledStep, and the
// parameter and head slots onto one []int. These tests pin what compiling
// allocates and that the windows never overlap.

// chainQuery is q(X0,Xn) :- p0(X0,X1), ..., p{n-1}(X{n-1},Xn).
func chainQuery(n int) *cq.Query {
	atoms := make([]string, n)
	for i := range atoms {
		atoms[i] = fmt.Sprintf("p%d(X%d,X%d)", i, i, i+1)
	}
	return mustQ(fmt.Sprintf("q(X0,X%d) :- %s", n, strings.Join(atoms, ", ")))
}

// TestCompileParamsAllocs guards what compiling one plan or rule variant
// allocates. Before the plan's ops, steps and slots were each allocated
// once, as exactly sized arrays, the three queries measured 25, 61 and 23:
// an allocation per atom and per column op, and a map of components. Then
// they measured 10, 22 and 13 (4 and 13 for the chains' full rule
// variants), until the components and the join order's list moved into
// pooled scratch: a 3-atom plan now allocates its six arrays and nothing
// else (the 9-atom chain's maps outgrow the caller's frame). The budgets
// are the counts measured since (6, 15 and 6; 3 and 12) plus about a
// tenth.
func TestCompileParamsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	db := storage.NewDatabase()
	for i := 0; i < 9; i++ {
		for k := 0; k < 4; k++ {
			db.Insert(fmt.Sprintf("p%d", i), storage.Tuple{fmt.Sprint(k), fmt.Sprint(k + 1)})
		}
	}
	db.BuildIndexes()
	cat := cost.NewCatalog(db)
	chain3, chain9 := mustQ("q(X3) :- p1(c0,X1), p2(X1,X2), p3(X2,X3)"), chainQuery(9)
	twoComps := mustQ("q(X,Y) :- p0(X,A), p1(Y,B)")
	rule3, rule9 := RuleFromQuery(chain3), RuleFromQuery(chain9)
	for _, c := range []struct {
		name    string
		compile func()
		budget  float64
	}{
		{"3-atom chain", func() { CompileParams(chain3, nil, cat) }, 7},                    // measured 6
		{"9-atom chain", func() { CompileParams(chain9, nil, cat) }, 17},                   // measured 15
		{"two components", func() { CompileParams(twoComps, nil, cat) }, 7},                // measured 6
		{"3-atom chain's full variant", func() { compileRuleVariant(rule3, -1, cat) }, 4},  // measured 3
		{"9-atom chain's full variant", func() { compileRuleVariant(rule9, -1, cat) }, 14}, // measured 12
	} {
		if got := testing.AllocsPerRun(100, c.compile); got > c.budget {
			t.Errorf("%s: compiling made %.0f allocations, budget %.0f", c.name, got, c.budget)
		}
	}
}

// goldenRewritings reads every rewriting the integration golden plans list,
// with the parameters its strategy line names.
func goldenRewritings(t *testing.T) (qs []*cq.Query, params [][]string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "integration", "testdata", "plans", "*.golden"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden plans: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var ps []string
		for _, line := range strings.Split(string(src), "\n") {
			if _, rest, ok := strings.Cut(line, "params=["); ok {
				list, _, _ := strings.Cut(rest, "]")
				ps = strings.Fields(list)
			}
			if strings.HasPrefix(line, "    q(") {
				q, err := cq.ParseQuery(strings.TrimSpace(line))
				if err != nil {
					t.Fatalf("%s: %q: %v", f, line, err)
				}
				qs, params = append(qs, q), append(params, ps)
			}
		}
	}
	return qs, params
}

// TestCompiledPlanWindows compiles every golden rewriting, without and with
// statistics: each step's ops and opsIndexed are capped at their lengths, so
// no step can append into a neighbour's ops; a probing step checks its
// probed column first and indexes the rest; compiling the same query
// twice gives equal plans; and a connected body lowers to the same join as
// a plan and as a rule's full variant.
func TestCompiledPlanWindows(t *testing.T) {
	qs, params := goldenRewritings(t)
	if len(qs) < 100 {
		t.Fatalf("only %d golden rewritings", len(qs))
	}
	stats := cost.NewRowCatalog(storage.NewDatabase())
	for _, q := range qs {
		for i, a := range q.Body {
			distinct := make([]float64, len(a.Args))
			for col := range distinct {
				distinct[col] = float64(1 + (i+col)%4)
			}
			stats.SetRelation(a.Pred, float64(10*len(a.Pred)+i), distinct)
		}
	}
	for i, q := range qs {
		for _, cat := range []*cost.Catalog{nil, stats} {
			p := CompileParams(q, params[i], cat)
			for _, c := range p.components {
				for _, s := range c.steps {
					if cap(s.ops) != len(s.ops) || cap(s.opsIndexed) != len(s.opsIndexed) {
						t.Fatalf("%s, step %s: ops len %d cap %d, opsIndexed len %d cap %d",
							q, s.pred, len(s.ops), cap(s.ops), len(s.opsIndexed), cap(s.opsIndexed))
					}
					want := s.ops
					if s.probeCol >= 0 {
						if s.ops[0].col != s.probeCol {
							t.Fatalf("%s, step %s: first op checks column %d, probe is %d", q, s.pred, s.ops[0].col, s.probeCol)
						}
						want = s.ops[1:]
					}
					if !reflect.DeepEqual(s.opsIndexed, want) {
						t.Fatalf("%s, step %s: opsIndexed %+v, want %+v", q, s.pred, s.opsIndexed, want)
					}
				}
			}
			if again := CompileParams(q, params[i], cat); !reflect.DeepEqual(p, again) {
				t.Fatalf("%s: two compiles differ:\n%s\n%s", q, p.Describe(), again.Describe())
			}
			if p := CompileParams(q, nil, cat); len(p.components) == 1 {
				sameJoin(t, q, p.components[0].steps, compileRuleVariant(RuleFromQuery(q), -1, cat).steps)
			}
		}
	}
}

// sameJoin fails unless a plan's steps and a rule variant's are the same
// join: the same atoms in the same order, each with the same access path
// (scan, index column fed from a slot, or constant probe), the same column
// ops and the same number of comparisons. Slot numbers may differ — a plan
// numbers its head slots first, a variant in binding order — so the slots
// must correspond one to one.
func sameJoin(t *testing.T, q *cq.Query, plan, variant []compiledStep) {
	t.Helper()
	if len(plan) != len(variant) {
		t.Fatalf("%s: plan has %d steps, variant %d", q, len(plan), len(variant))
	}
	slots := make(map[int]int)   // plan slot -> variant slot
	inverse := make(map[int]int) // variant slot -> plan slot
	sameSlot := func(ps, vs int) bool {
		if ps < 0 || vs < 0 {
			return ps == vs
		}
		if v, ok := slots[ps]; ok {
			return v == vs
		}
		if _, ok := inverse[vs]; ok {
			return false
		}
		slots[ps], inverse[vs] = vs, ps
		return true
	}
	for j := range plan {
		p, v := &plan[j], &variant[j]
		if p.pred != v.pred || p.probeCol != v.probeCol || p.probeConst != v.probeConst || !sameSlot(p.probeSlot, v.probeSlot) {
			t.Fatalf("%s, step %d: plan %s probes col %d (slot %d, %q), variant %s col %d (slot %d, %q)",
				q, j+1, p.pred, p.probeCol, p.probeSlot, p.probeConst, v.pred, v.probeCol, v.probeSlot, v.probeConst)
		}
		if len(p.ops) != len(v.ops) || len(p.comps) != len(v.comps) {
			t.Fatalf("%s, step %d (%s): plan has %d ops and %d comparisons, variant %d and %d",
				q, j+1, p.pred, len(p.ops), len(p.comps), len(v.ops), len(v.comps))
		}
		for k, op := range p.ops {
			vop := v.ops[k]
			slotted := op.action != colCheckConst
			if op.action != vop.action || op.col != vop.col || op.constVal != vop.constVal || slotted && !sameSlot(op.slot, vop.slot) {
				t.Fatalf("%s, step %d (%s), op %d: plan %+v, variant %+v", q, j+1, p.pred, k, op, vop)
			}
		}
	}
}
