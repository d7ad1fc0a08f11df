// Cost-based plan selection: the optimiser's view of the paper. A query
// usually has several equivalent rewritings (and the original plan); which
// one to run depends on the data. This example enumerates all rewritings,
// costs each against catalog statistics, picks the cheapest, and then
// verifies the prediction by racing the actual evaluations.
//
// Run with: go run ./examples/costbased
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	aqv "repro"
)

func main() {
	// Schema: follows(A,B), posts(A,P). Views materialise the expensive
	// self-join and the post lookup.
	views, err := aqv.ParseViews(`
		mutual(A,B)     :- follows(A,B), follows(B,A).
		followPost(A,P) :- follows(A,B), posts(B,P).
	`)
	if err != nil {
		log.Fatal(err)
	}
	vs, err := aqv.NewViewSet(views...)
	if err != nil {
		log.Fatal(err)
	}

	// Query: posts of accounts that the user mutually follows.
	q := aqv.MustParseQuery(
		"q(A,P) :- follows(A,B), follows(B,A), posts(B,P)")

	r := aqv.NewRewriter(vs)
	r.Opt.AllowPartial = true
	r.Opt.MaxResults = aqv.AllRewritings
	rewritings, _ := r.Rewrite(q)
	if len(rewritings) == 0 {
		log.Fatal("no rewritings")
	}

	// Candidate plans: the original query plus every rewriting.
	candidates := []*aqv.Query{q}
	for _, rw := range rewritings {
		candidates = append(candidates, rw.Query)
	}
	fmt.Println("candidate plans:")
	for i, c := range candidates {
		fmt.Printf("  [%d] %s\n", i, c)
	}

	// Data: a follower graph with some reciprocation.
	rng := rand.New(rand.NewSource(99))
	base := aqv.NewDatabase()
	const users, followsN, postsN = 1500, 20000, 8000
	for i := 0; i < followsN; i++ {
		a, b := rng.Intn(users), rng.Intn(users)
		base.Insert("follows", aqv.Tuple{user(a), user(b)})
		if rng.Intn(4) == 0 {
			base.Insert("follows", aqv.Tuple{user(b), user(a)})
		}
	}
	for i := 0; i < postsN; i++ {
		base.Insert("posts", aqv.Tuple{user(rng.Intn(users)), fmt.Sprintf("p%d", i)})
	}

	// The executable database: base relations plus materialised views
	// (plans may mix both).
	db := base.Clone()
	for _, v := range views {
		viewDB, err := aqv.MaterializeViews(base, []*aqv.Query{v})
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range viewDB.Relation(v.Name()).Tuples() {
			if err := db.Insert(v.Name(), t); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Cost each candidate and pick the winner.
	catalog := aqv.NewCatalog(db)
	best, estimates := aqv.ChoosePlan(candidates, nil, catalog)
	fmt.Println("\ncost estimates (intermediate tuples):")
	for i, e := range estimates {
		marker := " "
		if i == best {
			marker = "*"
		}
		fmt.Printf("  %s[%d] cost=%.0f card=%.0f\n", marker, i, e.Cost, e.Cardinality)
	}

	// Race the actual evaluations to check the prediction.
	fmt.Println("\nmeasured evaluation:")
	var winner int
	var winnerTime time.Duration
	for i, c := range candidates {
		start := time.Now()
		answers := aqv.EvalQuery(db, c)
		d := time.Since(start)
		fmt.Printf("  [%d] %v (%d answers)\n", i, d, len(answers))
		if i == 0 || d < winnerTime {
			winner, winnerTime = i, d
		}
	}
	fmt.Printf("\ncost model chose plan %d; fastest measured plan was %d\n", best, winner)
	ref := aqv.EvalQuery(db, candidates[0])
	chosen := aqv.EvalQuery(db, candidates[best])
	fmt.Println("chosen plan returns identical answers:", aqv.TuplesEqual(ref, chosen))
}

func user(i int) string { return fmt.Sprintf("u%d", i) }
