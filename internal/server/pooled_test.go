package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/storage"
)

// pooledBed serves a live namespace in churn_durable's shape, plus a pair
// of views under which one template has no equivalent rewriting and is
// answered by MiniCon's union:
//
//	v(K,Y)   :- r(K,Z), s(Z,Y).          the prepared join, 200 rows a group
//	vg(K,G)  :- reg(K,G).
//	ta(K,Y)  :- t(K,Z), u(Z,Y), a(Z).    t ⋈ u only where Z is in a or b:
//	tb(K,Y)  :- t(K,Z), u(Z,Y), b(Z).    a union of two members
//
// A third of the Z values is in a alone, a third in b alone and a third in
// both, so the second member repeats rows of the first, which the set must
// find through its dedup table.
//
// Batches churn r and s under keys no reg tuple names, so every read has
// one correct answer whether it runs before or after a publish. It returns
// the base as built, which every read is answered from.
func pooledBed(t testing.TB) (http.Handler, *storage.Database, [][]byte) {
	t.Helper()
	const keys, nZ, groups = 2000, 1000, 20
	base := storage.NewDatabase()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%d", i)
		base.Insert("r", storage.Tuple{k, fmt.Sprintf("z%d", i%nZ)})
		base.Insert("reg", storage.Tuple{k, fmt.Sprintf("g%d", i%groups)})
		base.Insert("t", storage.Tuple{k, fmt.Sprintf("z%d", i%nZ)})
	}
	for j := 0; j < nZ; j++ {
		z := fmt.Sprintf("z%d", j)
		base.Insert("s", storage.Tuple{z, fmt.Sprintf("y%d", j)})
		base.Insert("s", storage.Tuple{z, fmt.Sprintf("y%d", j+1)})
		base.Insert("u", storage.Tuple{z, fmt.Sprintf("y%d", j)})
		if j%3 != 1 {
			base.Insert("a", storage.Tuple{z})
		}
		if j%3 != 0 {
			base.Insert("b", storage.Tuple{z})
		}
	}
	views, err := cq.ParseViews(`
		v(K,Y)  :- r(K,Z), s(Z,Y).
		vg(K,G) :- reg(K,G).
		ta(K,Y) :- t(K,Z), u(Z,Y), a(Z).
		tb(K,Y) :- t(K,Z), u(Z,Y), b(Z).`)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewNamespace(DefaultNamespace, base.Clone(), views, Config{
		Strategy: "auto", LiveUpdates: true, MaxConcurrent: 4, MaxQueue: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(ns); err != nil {
		t.Fatal(err)
	}
	// Batch j inserts facts(j) and deletes facts(j-1), which the first
	// batch finds absent.
	facts := func(j int) map[string][][]string {
		m := make(map[string][][]string)
		for i := 0; i < 8; i++ {
			cz := fmt.Sprintf("cz%d_%d", j, i)
			m["s"] = append(m["s"], []string{cz, fmt.Sprintf("y%d", i)})
			m["r"] = append(m["r"], []string{fmt.Sprintf("c%d_%d", j, i), cz})
			m["r"] = append(m["r"], []string{fmt.Sprintf("c%d_%d", j, i+8), fmt.Sprintf("z%d", i)})
		}
		return m
	}
	bodies := make([][]byte, 64)
	for j := range bodies {
		bodies[j], _ = json.Marshal(map[string]any{"updates": facts(j), "deletes": facts(j - 1)})
	}
	return New(reg).Handler(), base, bodies
}

// oracleReply is the exec/query reply json.Encoder writes for the answers
// the naive evaluator gives q, as a union over members, on base.
func oracleReply(t testing.TB, base *storage.Database, members ...string) string {
	t.Helper()
	var set datalog.RowSet
	for _, m := range members {
		for _, row := range datalog.EvalQueryNaive(base, cq.MustParseQuery(m)) {
			set.Add(row)
		}
	}
	return string(stdlibAnswers(t, storage.SortTuples(set.Rows())))
}

// TestPooledReplyStress races every way a pooled reply set can go wrong —
// released before it is written, released twice so that two requests share
// one arena, sorted before the last union member was added — against
// replies compared byte for byte with the naive oracle. Readers send
// 200-row execs of the prepared join, union queries, and requests that
// trip a row budget or a deadline mid-evaluation, while a writer sends
// batches the whole time. Every 200 reply must be the oracle's; a budget
// trip must be 422 and a deadline 408.
func TestPooledReplyStress(t *testing.T) {
	h, base, bodies := pooledBed(t)
	setup := newMemClient(h)
	const join = "q(K,Y) :- reg(K,g3), r(K,Z), s(Z,Y)"
	handle := prepareHandle(t, setup, join)

	type read struct {
		path   string
		body   []byte
		want   string // the 200 reply
		status int    // the status a tripped budget answers with, or 0
	}
	var reads []read
	for g := 0; g < 4; g++ {
		want := oracleReply(t, base, fmt.Sprintf("q(K,Y) :- reg(K,g%d), r(K,Z), s(Z,Y)", g))
		body, _ := json.Marshal(execRequest{Handle: handle, Args: Row{fmt.Sprintf("g%d", g)}})
		reads = append(reads, read{path: "/v1/exec", body: body, want: want})
		over, _ := json.Marshal(execRequest{Handle: handle, Args: Row{fmt.Sprintf("g%d", g)}, Budget: &budgetSpec{MaxResultRows: 150}})
		reads = append(reads, read{path: "/v1/exec", body: over, status: http.StatusUnprocessableEntity})
	}
	for g := 0; g < 3; g++ {
		text := fmt.Sprintf("q(K,Y) :- reg(K,g%d), t(K,Z), u(Z,Y)", g)
		want := oracleReply(t, base,
			fmt.Sprintf("q(K,Y) :- reg(K,g%d), t(K,Z), u(Z,Y), a(Z)", g),
			fmt.Sprintf("q(K,Y) :- reg(K,g%d), t(K,Z), u(Z,Y), b(Z)", g))
		body, _ := json.Marshal(queryRequest{Query: text})
		reads = append(reads, read{path: "/v1/query", body: body, want: want})
		over, _ := json.Marshal(queryRequest{Query: text, Budget: &budgetSpec{MaxResultRows: 40}})
		reads = append(reads, read{path: "/v1/query", body: over, status: http.StatusUnprocessableEntity})
	}
	// The whole join, 4 000 rows, under a 1 ms deadline: it may finish.
	all := "q(K,Y) :- reg(K,G), r(K,Z), s(Z,Y)"
	body, _ := json.Marshal(queryRequest{Query: all, Budget: &budgetSpec{DeadlineMS: 1}})
	reads = append(reads, read{path: "/v1/query", body: body, want: oracleReply(t, base, all), status: http.StatusRequestTimeout})

	// The union template must be planned as a union, or the test races
	// nothing the union path does.
	setup.post("/v1/prepare", []byte(`{"query":"q(K,Y) :- reg(K,g0), t(K,Z), u(Z,Y)"}`))
	var prep prepareResponse
	if err := json.Unmarshal(setup.w.buf.Bytes(), &prep); err != nil || prep.Chosen != "minicon" {
		t.Fatalf("union template planned %q (%v): %s", prep.Chosen, err, setup.w.buf.Bytes())
	}

	const readers, rounds = 4, 30
	stop := make(chan struct{})
	errs := make(chan error, readers+1)
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		c := newMemClient(h)
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			c.post("/v1/batch", bodies[j%len(bodies)])
			if c.w.status != http.StatusOK {
				errs <- fmt.Errorf("batch %d: status %d: %s", j, c.w.status, c.w.buf.Bytes())
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newMemClient(h)
			for i := 0; i < rounds*len(reads); i++ {
				rd := reads[(i+w*7)%len(reads)]
				c.post(rd.path, rd.body)
				got := c.w.buf.String()
				switch {
				case c.w.status == http.StatusOK && rd.want != "":
					if got != rd.want {
						errs <- fmt.Errorf("%s %s: reply differs from the oracle:\n got  %.300s\n want %.300s", rd.path, rd.body, got, rd.want)
						return
					}
				case c.w.status != rd.status || rd.status == 0:
					errs <- fmt.Errorf("%s %s: status %d, want %d: %.300s", rd.path, rd.body, c.w.status, rd.status, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
