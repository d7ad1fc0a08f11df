package datalog

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/storage"
)

// Shard-count scaling benchmarks for the sharded executor: the flat route
// against every shard count in one process. CI runs these at -benchtime=1x
// as a smoke test.

func benchShardCounts() []int {
	// Shards beyond the core count still pay off on one core: they shrink the
	// per-task probe working set (the cache-locality axis), so the sweep runs
	// past GOMAXPROCS.
	limit := 2 * runtime.GOMAXPROCS(0)
	if limit < 32 {
		limit = 32
	}
	var out []int
	for s := 1; s <= limit; s *= 2 {
		out = append(out, s)
	}
	return out
}

func BenchmarkShardedServeJoin(b *testing.B) {
	// A reduced copy of BenchmarkGuardOverhead's serve_join workload.
	db := serveJoinDB(40000, 15000, 200000)
	q := mustQ("q(Y,Z) :- p1(W,X), p2(X,Y), p3(Y,Z)")
	db.BuildIndexes()
	cat := cost.NewCatalog(db)
	plan := Compile(q, cat)
	partCols := cat.PartitionColumns(plan.PartitionHints())
	workers := runtime.GOMAXPROCS(0)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.EvalParallel(db, workers)
		}
	})
	for _, s := range benchShardCounts() {
		pdb := storage.Partition(db, s, partCols)
		pdb.BuildIndexes()
		w := workers
		if s < w {
			w = s
		}
		b.Run(fmt.Sprintf("shards%d", s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.EvalSharded(pdb, w)
			}
		})
	}
}

func BenchmarkShardedFixpointTC(b *testing.B) {
	edges := tcChainDB()
	prog := NewProgram(
		RuleFromQuery(mustQ("tc(X,Y) :- e(X,Y)")),
		RuleFromQuery(mustQ("tc(X,Z) :- tc(X,Y), e(Y,Z)")),
	)
	edges.BuildIndexes()
	cat := cost.NewCatalog(edges)
	cp, err := CompileProgram(prog, cat)
	if err != nil {
		b.Fatal(err)
	}
	partCols := cat.PartitionColumns(cp.PartitionHints())
	workers := runtime.GOMAXPROCS(0)
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cp.EvalParallel(edges, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, s := range benchShardCounts() {
		pdb := storage.Partition(edges, s, partCols)
		pdb.BuildIndexes()
		w := workers
		if s < w {
			w = s
		}
		b.Run(fmt.Sprintf("shards%d", s), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cp.EvalSharded(pdb, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serveJoinDB builds the join-heavy serving workload q(Y,Z) :- p1(W,X),
// p2(X,Y), p3(Y,Z) with n1, n2 and n3 tuples: a guarded fan-out join where
// the flat evaluator's time goes to candidate-list walks over p3 and the
// head carries the routing slot (disjoint tasks).
func serveJoinDB(n1, n2, n3 int) *storage.Database {
	rng := rand.New(rand.NewSource(91))
	w, x, k, z := n1*5/2, n1*3/4, n1/4, n3*5/2
	db := storage.NewDatabase()
	for i := 0; i < n1; i++ {
		db.Insert("p1", storage.Tuple{"w" + fmt.Sprint(rng.Intn(w)), "x" + fmt.Sprint(rng.Intn(x))})
	}
	for i := 0; i < n2; i++ {
		db.Insert("p2", storage.Tuple{"x" + fmt.Sprint(rng.Intn(x)), "k" + fmt.Sprint(rng.Intn(k))})
	}
	for i := 0; i < n3; i++ {
		db.Insert("p3", storage.Tuple{"k" + fmt.Sprint(rng.Intn(k)), "z" + fmt.Sprint(rng.Intn(z))})
	}
	return db
}

// tcChainDB builds the recursive fixpoint workload: a 400-node chain with
// 200 random skip edges, closed by tc.
func tcChainDB() *storage.Database {
	rng := rand.New(rand.NewSource(93))
	edges := storage.NewDatabase()
	const chain = 400
	for i := 0; i < chain; i++ {
		edges.Insert("e", storage.Tuple{fmt.Sprint(i), fmt.Sprint(i + 1)})
	}
	for i := 0; i < 200; i++ {
		from := rng.Intn(chain)
		edges.Insert("e", storage.Tuple{fmt.Sprint(from), fmt.Sprint(from + 1 + rng.Intn(6))})
	}
	return edges
}
