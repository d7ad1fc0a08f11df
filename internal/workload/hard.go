package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/cq"
)

// The T2/T3 hard family. The paper's NP-completeness results (R3) locate
// the hardness of rewriting-existence and view-usability in deciding
// whether a view body maps homomorphically into the query body. Graph
// homomorphism instances make this concrete: the view body is a k-clique
// pattern over the edge predicate, the query body is a graph; a valid
// application of the view exists iff the query graph contains a k-clique.

// CliqueView builds the view whose body is the complete pattern on k
// variables, all distinguished:
//
//	v(Y0..Yk-1) :- e(Yi,Yj) for all i<j   (both orientations)
//
// Both edge orientations are included so the target graph can be stored
// undirected as symmetric pairs.
func CliqueView(k int) *cq.Query {
	if k < 2 {
		panic("workload: clique view needs k >= 2")
	}
	var body []cq.Atom
	args := make([]cq.Term, k)
	for i := 0; i < k; i++ {
		args[i] = viewVar(i)
		for j := i + 1; j < k; j++ {
			body = append(body, cq.NewAtom("e", viewVar(i), viewVar(j)))
			body = append(body, cq.NewAtom("e", viewVar(j), viewVar(i)))
		}
	}
	return &cq.Query{Head: cq.NewAtom("v", args...), Body: body}
}

// GraphQuery builds a boolean-ish query whose body is the given undirected
// graph over n vertices (edges stored in both orientations), exposing the
// first vertex.
func GraphQuery(n int, edges [][2]int) *cq.Query {
	var body []cq.Atom
	for _, e := range edges {
		body = append(body, cq.NewAtom("e", chainVar(e[0]), chainVar(e[1])))
		body = append(body, cq.NewAtom("e", chainVar(e[1]), chainVar(e[0])))
	}
	if len(body) == 0 {
		panic("workload: graph query needs at least one edge")
	}
	return &cq.Query{Head: cq.NewAtom("q", body[0].Args[0]), Body: body}
}

// HardUsabilityInstance builds a (view, query) pair for which the usability
// test must solve k-clique on a random graph with the given edge
// probability. With edgeProb below the clique threshold the instance is
// usually negative, which forces the homomorphism search to exhaust its
// space — the T2/T3 hard case.
func HardUsabilityInstance(rng *rand.Rand, k, n int, edgeProb float64) (view, query *cq.Query) {
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < edgeProb {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	if len(edges) == 0 {
		edges = append(edges, [2]int{0, 1})
	}
	return CliqueView(k), GraphQuery(n, edges)
}

// EasyUsabilityInstance builds a (view, query) pair of the same sizes for
// which usability is decidable greedily: the view is a subchain of a chain
// query, so the homomorphism search never backtracks.
func EasyUsabilityInstance(k, n int) (view, query *cq.Query) {
	body := make([]cq.Atom, k)
	args := []cq.Term{viewVar(0), viewVar(k)}
	for i := 0; i < k; i++ {
		body[i] = cq.NewAtom(fmt.Sprintf("p%d", i+1), viewVar(i), viewVar(i+1))
	}
	view = &cq.Query{Head: cq.NewAtom("v", args...), Body: body}
	return view, ChainQuery(n, true)
}
