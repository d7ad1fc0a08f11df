package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cq"
)

// coloringInstance encodes the paper's NP-hardness reduction shape
// directly: the view's body is the (symmetrised) input graph and the
// query's body is the triangle K3, so the view is usable for the query iff
// the graph is 3-colourable (a homomorphism G → K3 is exactly a proper
// 3-colouring). All view variables are distinguished so the application
// validity conditions never reject a homomorphism.
func coloringInstance(edges [][2]int) (view, query *cq.Query) {
	var body []cq.Atom
	seen := make(map[string]bool)
	var args []cq.Term
	addVar := func(i int) cq.Term {
		t := viewVar(i)
		if !seen[t.Lex] {
			seen[t.Lex] = true
			args = append(args, t)
		}
		return t
	}
	for _, e := range edges {
		a, b := addVar(e[0]), addVar(e[1])
		body = append(body, cq.NewAtom("e", a, b), cq.NewAtom("e", b, a))
	}
	view = &cq.Query{Head: cq.NewAtom("v", args...), Body: body}
	return view, GraphQuery(3, [][2]int{{0, 1}, {1, 2}, {0, 2}})
}

// 3-colourability via usability: the paper's NP-hardness reduction shape.
func TestColoringUsability(t *testing.T) {
	cases := []struct {
		name      string
		edges     [][2]int
		colorable bool
	}{
		{"single edge", [][2]int{{0, 1}}, true},
		{"triangle", [][2]int{{0, 1}, {1, 2}, {0, 2}}, true},
		{"C5 (odd cycle)", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}, true},
		{"K4", [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, false},
		{"K4 plus pendant", [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}}, false},
		{"petersen-ish wheel W5", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 0}, {5, 1}, {5, 2}, {5, 3}, {5, 4}}, false},
		{"bipartite K23", [][2]int{{0, 3}, {0, 4}, {1, 3}, {1, 4}, {2, 3}, {2, 4}}, true},
	}
	for _, c := range cases {
		view, query := coloringInstance(c.edges)
		if err := view.Validate(); err != nil {
			t.Fatalf("%s: invalid view: %v", c.name, err)
		}
		if got := core.Usable(view, query); got != c.colorable {
			t.Errorf("%s: usable=%v want 3-colorable=%v", c.name, got, c.colorable)
		}
	}
}
