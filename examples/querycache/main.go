// Query caching / materialised views: the query-optimisation scenario from
// the paper's introduction, served through the library's engine layer. A
// warehouse has materialised two join views; a single Engine answers the
// incoming query stream, rewriting each query shape once, caching the plan
// under its canonical fingerprint, and evaluating over the (much smaller)
// materialised views instead of re-joining base tables.
//
// Run with: go run ./examples/querycache
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	aqv "repro"
)

const (
	nOrders    = 30000
	nCustomers = 2000
	nRegions   = 25
)

func main() {
	// Base schema:
	//   order(OrderId, CustId)      customer(CustId, RegionId)
	//   region(RegionId, Name)      bigOrder(OrderId)
	// Materialised views:
	//   custRegion: customer joined to region name
	//   orderCust:  order joined to customer
	views, err := aqv.ParseViews(`
		custRegion(C,N)  :- customer(C,R), region(R,N).
		orderCust(O,C,R) :- order(O,C), customer(C,R).
	`)
	if err != nil {
		log.Fatal(err)
	}

	// Build synthetic base data.
	rng := rand.New(rand.NewSource(2026))
	base := aqv.NewDatabase()
	for c := 0; c < nCustomers; c++ {
		base.Insert("customer", aqv.Tuple{id("c", c), id("r", rng.Intn(nRegions))})
	}
	for rgn := 0; rgn < nRegions; rgn++ {
		base.Insert("region", aqv.Tuple{id("r", rgn), "name" + id("", rgn)})
	}
	for o := 0; o < nOrders; o++ {
		base.Insert("order", aqv.Tuple{id("o", o), id("c", rng.Intn(nCustomers))})
		if rng.Intn(100) < 3 {
			base.Insert("bigOrder", aqv.Tuple{id("o", o)})
		}
	}

	// Stand up the serving engine: one call materialises the views (the
	// warehouse maintenance step), keeps the base tables for partial
	// rewritings, serves the database for concurrent reads, and wires up
	// the plan cache.
	matStart := time.Now()
	eng, err := aqv.NewEngineFromBase(base, views, aqv.EngineOptions{AllowPartial: true})
	if err != nil {
		log.Fatal(err)
	}
	matTime := time.Since(matStart)

	// The hot-path query: every order with its customer's region name.
	// Both joins are pre-computed by the views, so the plan replaces a
	// three-way join by one join of two materialised relations.
	q := aqv.MustParseQuery(
		"q(O,N) :- order(O,C), customer(C,R), region(R,N)")
	plan, err := eng.Plan(q)
	if err != nil {
		log.Fatal(err)
	}
	if plan.Rewriting == nil {
		log.Fatal("no equivalent rewriting found for the hot-path query")
	}
	fmt.Println("query:    ", q)
	fmt.Println("plan:     ", plan.Rewriting.Query, " (fingerprint", plan.Fingerprint[:8]+"…)")

	// A query touching a relation no view covers (bigOrder) still
	// benefits — the engine mixes views and base tables.
	qBig := aqv.MustParseQuery(
		"qb(O,N) :- bigOrder(O), order(O,C), customer(C,R), region(R,N)")
	if p, err := eng.Plan(qBig); err == nil && p.Rewriting != nil {
		fmt.Println("\npartial plan for the bigOrder query:")
		fmt.Printf("  %s   (complete=%v)\n", p.Rewriting.Query, p.Rewriting.Complete)
	}

	// Sanity: the engine's answers match direct evaluation of the query
	// over the base tables.
	dStart := time.Now()
	direct := aqv.EvalQuery(base, q)
	dTime := time.Since(dStart)
	answers, err := eng.Answer(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nengine setup (materialise+index, once): %v\n", matTime)
	fmt.Printf("direct evaluation: %v   (%d answers, equal=%v)\n",
		dTime, len(direct), aqv.TuplesEqual(direct, answers))

	// The serving scenario: one selective query arrives over and over,
	// spelled differently by every client — renamed variables, reordered
	// joins. Canonical fingerprints give all spellings one cache entry,
	// so the rewriting search runs once for the whole stream. Both sides
	// answer the stream one request at a time, so the speedup is the plan
	// cache's alone.
	point := aqv.MustParseQuery(
		"pt(N) :- customer('c17',R), region(R,N)")
	const streamLen = 2000
	stream := make([]*aqv.Query, streamLen)
	for i := range stream {
		stream[i] = alphaVariant(rng, point, i)
	}

	vs, err := aqv.NewViewSet(views...)
	if err != nil {
		log.Fatal(err)
	}
	naiveStart := time.Now()
	for _, sq := range stream {
		r := aqv.NewRewriter(vs)
		r.Opt.AllowPartial = true
		rw := r.RewriteOne(sq)
		if rw == nil {
			log.Fatalf("no rewriting for %s", sq)
		}
		aqv.EvalQuery(eng.Database(), rw.Query)
	}
	naiveTime := time.Since(naiveStart)

	servedStart := time.Now()
	for _, sq := range stream {
		if _, err := eng.Answer(sq); err != nil {
			log.Fatal(err)
		}
	}
	servedTime := time.Since(servedStart)

	st := eng.Stats()
	fmt.Printf("\nserving %d spellings of one point query:\n", streamLen)
	fmt.Printf("re-planning every request: %v   (%v/query)\n", naiveTime, naiveTime/streamLen)
	fmt.Printf("engine (cached plans):     %v   (%v/query)\n", servedTime, servedTime/streamLen)
	fmt.Printf("engine stats:              hits=%d misses=%d coalesced=%d cached=%d\n",
		st.Hits, st.Misses, st.Coalesced, st.CacheLen)
	if servedTime > 0 {
		fmt.Printf("serving speedup:           %.1fx\n", float64(naiveTime)/float64(servedTime))
	}

	// Prepared queries: the same lookup for *different* customers. The
	// constant is abstracted into the plan template, so one Prepare call
	// plans and compiles for the whole stream and each request is just a
	// bound execution — no canonicalisation, no cache probe, one index
	// probe into the materialised view per call.
	pq, err := eng.Prepare(point)
	if err != nil {
		log.Fatal(err)
	}
	prepStart := time.Now()
	for i := 0; i < streamLen; i++ {
		if _, err := pq.Exec(id("c", i%nCustomers)); err != nil {
			log.Fatal(err)
		}
	}
	prepTime := time.Since(prepStart)
	fmt.Printf("\nprepared exec, %d distinct customers through one plan: %v   (%v/query)\n",
		streamLen, prepTime, prepTime/streamLen)
}

// alphaVariant returns q with consistently renamed variables and shuffled
// subgoals — the same query as a different client would write it.
func alphaVariant(rng *rand.Rand, q *aqv.Query, salt int) *aqv.Query {
	v := q.Clone()
	sub := aqv.Subst{}
	for i, t := range q.Vars() {
		sub.Bind(t.Lex, aqv.Var(fmt.Sprintf("X%c%d_%d", 'A'+rng.Intn(26), salt, i)))
	}
	v = sub.ApplyQuery(v)
	rng.Shuffle(len(v.Body), func(i, j int) { v.Body[i], v.Body[j] = v.Body[j], v.Body[i] })
	return v
}

func id(prefix string, n int) string { return fmt.Sprintf("%s%d", prefix, n) }
