package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/engine"
	"repro/internal/storage"
)

const testViews = `
	v(A,B)  :- r(A,C), s(C,B).
	vr(A,B) :- r(A,B).
	vs(A,B) :- s(A,B).
`

// serveBase builds the r/s point-lookup workload: n r-tuples fanning into 40
// s-tuples, so v has n rows.
func serveBase(n int) *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < n; i++ {
		db.Insert("r", storage.Tuple{fmt.Sprintf("k%d", i), fmt.Sprintf("m%d", i%40)})
	}
	for j := 0; j < 40; j++ {
		db.Insert("s", storage.Tuple{fmt.Sprintf("m%d", j), fmt.Sprintf("x%d", j%7)})
	}
	return db
}

func testNamespace(t testing.TB, name string, n int, cfg Config) *Namespace {
	t.Helper()
	views, err := cq.ParseViews(testViews)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewNamespace(name, serveBase(n), views, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// testServer stands up an httptest server over the given namespaces.
func testServer(t testing.TB, nss ...*Namespace) (*Server, *httptest.Server) {
	t.Helper()
	reg := NewRegistry()
	for _, ns := range nss {
		if err := reg.Add(ns); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(reg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decodeInto(t testing.TB, resp *http.Response, into any) {
	t.Helper()
	data := readBody(t, resp)
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("decode %s: %v", data, err)
	}
}

// wantError asserts status + envelope code and returns the envelope.
func wantError(t testing.TB, resp *http.Response, status int, code string) ErrorEnvelope {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d (%s), want %d", resp.StatusCode, readBody(t, resp), status)
	}
	var body errorBody
	decodeInto(t, resp, &body)
	if body.Error.Code != code {
		t.Fatalf("error code = %q (%+v), want %q", body.Error.Code, body.Error, code)
	}
	return body.Error
}

// answerKeys reduces an answer set to sorted tuple keys for comparison.
func answerKeys(rows []storage.Tuple) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

func sameAnswers(a, b []storage.Tuple) bool {
	ka, kb := answerKeys(a), answerKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, testNamespace(t, DefaultNamespace, 10, Config{}))
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h healthResponse
	decodeInto(t, resp, &h)
	if h.Status != "ok" || len(h.Namespaces) != 1 || h.Namespaces[0] != DefaultNamespace {
		t.Fatalf("health = %+v", h)
	}
}

// TestQueryMatchesInProcess: a one-shot HTTP query returns exactly what the
// in-process engine returns.
func TestQueryMatchesInProcess(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 30, Config{})
	_, ts := testServer(t, ns)
	const qsrc = "q(X,Y) :- r(X,Z), s(Z,Y)."
	want, err := ns.Engine.Answer(cq.MustParseQuery(qsrc))
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: qsrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var ans answersResponse
	decodeInto(t, resp, &ans)
	if ans.Count != len(want) || !sameAnswers(ans.Answers, want) {
		t.Fatalf("HTTP answers != in-process: %d vs %d rows", ans.Count, len(want))
	}
}

// TestPrepareExecFlow: prepare returns a handle keyed by the template
// fingerprint; exec with fresh args runs the compiled plan; re-prepare of the
// same shape returns the same handle.
func TestPrepareExecFlow(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 30, Config{})
	_, ts := testServer(t, ns)

	resp := postJSON(t, ts.URL+"/v1/prepare", prepareRequest{Query: "q(Y) :- r(k3,Z), s(Z,Y)."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var prep prepareResponse
	decodeInto(t, resp, &prep)
	if prep.Handle == "" || prep.Handle != prep.Fingerprint {
		t.Fatalf("prepare = %+v", prep)
	}
	if prep.NumParams != 1 || len(prep.Args) != 1 || prep.Args[0] != "k3" {
		t.Fatalf("prepare = %+v", prep)
	}

	// Exec under a different binding matches the one-shot answer.
	for _, k := range []string{"k3", "k7", "k12", "nope"} {
		want, err := ns.Engine.Answer(cq.MustParseQuery(fmt.Sprintf("q(Y) :- r(%s,Z), s(Z,Y).", k)))
		if err != nil {
			t.Fatal(err)
		}
		resp := postJSON(t, ts.URL+"/v1/exec", execRequest{Handle: prep.Handle, Args: Row{k}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exec %s status = %d: %s", k, resp.StatusCode, readBody(t, resp))
		}
		var ans answersResponse
		decodeInto(t, resp, &ans)
		if !sameAnswers(ans.Answers, want) {
			t.Fatalf("exec %s: HTTP %v != in-process %v", k, ans.Answers, want)
		}
	}

	// A second prepare of the same template shape shares the handle.
	resp = postJSON(t, ts.URL+"/v1/prepare", prepareRequest{Query: "q(Y) :- r(k9,Z), s(Z,Y)."})
	var prep2 prepareResponse
	decodeInto(t, resp, &prep2)
	if prep2.Handle != prep.Handle || len(prep2.Args) != 1 || prep2.Args[0] != "k9" {
		t.Fatalf("re-prepare = %+v, want handle %s with args [k9]", prep2, prep.Handle)
	}

	// Wrong arg count is an arity_mismatch, not a 500.
	resp = postJSON(t, ts.URL+"/v1/exec", execRequest{Handle: prep.Handle, Args: Row{"a", "b"}})
	wantError(t, resp, http.StatusBadRequest, engine.CodeArityMismatch)

	// An unknown handle tells the client to re-prepare.
	resp = postJSON(t, ts.URL+"/v1/exec", execRequest{Handle: "deadbeef", Args: Row{"k3"}})
	wantError(t, resp, http.StatusNotFound, CodeUnknownHandle)
}

func TestNamespaceRouting(t *testing.T) {
	nsA := testNamespace(t, DefaultNamespace, 10, Config{})
	nsB := testNamespace(t, "tenant-b", 25, Config{})
	_, ts := testServer(t, nsA, nsB)

	const qsrc = "q(X,Y) :- r(X,Y)."
	countOf := func(url string, body any) int {
		resp := postJSON(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, readBody(t, resp))
		}
		var ans answersResponse
		decodeInto(t, resp, &ans)
		return ans.Count
	}
	// Path routing, body routing and the default all hit the right engine.
	if n := countOf(ts.URL+"/v1/ns/tenant-b/query", queryRequest{Query: qsrc}); n != 25 {
		t.Fatalf("tenant-b rows = %d, want 25", n)
	}
	if n := countOf(ts.URL+"/v1/query", queryRequest{Namespace: "tenant-b", Query: qsrc}); n != 25 {
		t.Fatalf("body-routed tenant-b rows = %d, want 25", n)
	}
	if n := countOf(ts.URL+"/v1/query", queryRequest{Query: qsrc}); n != 10 {
		t.Fatalf("default rows = %d, want 10", n)
	}
	// Unknown namespaces 404 on both routes.
	resp := postJSON(t, ts.URL+"/v1/ns/nope/query", queryRequest{Query: qsrc})
	wantError(t, resp, http.StatusNotFound, CodeUnknownNamespace)
	resp = postJSON(t, ts.URL+"/v1/query", queryRequest{Namespace: "nope", Query: qsrc})
	wantError(t, resp, http.StatusNotFound, CodeUnknownNamespace)

	// A handle prepared in one namespace is not visible in another.
	resp = postJSON(t, ts.URL+"/v1/ns/tenant-b/prepare", prepareRequest{Query: "q(X) :- r(k1,X)."})
	var prep prepareResponse
	decodeInto(t, resp, &prep)
	resp = postJSON(t, ts.URL+"/v1/exec", execRequest{Handle: prep.Handle, Args: Row{"k1"}})
	wantError(t, resp, http.StatusNotFound, CodeUnknownHandle)
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, testNamespace(t, DefaultNamespace, 10, Config{}))

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusBadRequest, CodeBadRequest)

	resp = postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "q(X :- broken"})
	wantError(t, resp, http.StatusBadRequest, CodeInvalidQuery)

	resp = postJSON(t, ts.URL+"/v1/batch", batchRequest{})
	wantError(t, resp, http.StatusBadRequest, CodeBadRequest)
}

// TestBatchLiveAndFrozen: /v1/batch feeds the IVM path on a live namespace
// and is a 409 not_live on a frozen one.
func TestBatchLiveAndFrozen(t *testing.T) {
	live := testNamespace(t, DefaultNamespace, 10, Config{LiveUpdates: true})
	frozen := testNamespace(t, "frozen", 10, Config{})
	_, ts := testServer(t, live, frozen)

	batch := batchRequest{Updates: map[string]Rows{
		"r": {{"k100", "m1"}, {"k101", "m2"}},
	}}
	resp := postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var br batchResponse
	decodeInto(t, resp, &br)
	if !br.Applied || br.Predicates != 1 || br.Tuples != 2 {
		t.Fatalf("batch = %+v", br)
	}
	// The inserts are visible through the maintained views.
	resp = postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "q(X) :- r(k100,X)."})
	var ans answersResponse
	decodeInto(t, resp, &ans)
	if ans.Count != 1 || ans.Answers[0][0] != "m1" {
		t.Fatalf("post-batch answers = %+v", ans)
	}

	resp = postJSON(t, ts.URL+"/v1/ns/frozen/batch", batch)
	wantError(t, resp, http.StatusConflict, engine.CodeNotLive)
}

// TestBudgetTrip422 asserts the budget_exceeded envelope, including partial
// fixpoint stats when the inverse-rules fixpoint trips mid-run.
func TestBudgetTrip422(t *testing.T) {
	plain := testNamespace(t, DefaultNamespace, 30, Config{})
	inv := testNamespace(t, "inv", 50, Config{Strategy: "inverse-rules"})
	_, ts := testServer(t, plain, inv)

	// Row cap.
	resp := postJSON(t, ts.URL+"/v1/query", queryRequest{
		Query:  "q(X,Y) :- r(X,Z), s(Z,Y).",
		Budget: &budgetSpec{MaxResultRows: 1},
	})
	wantError(t, resp, http.StatusUnprocessableEntity, engine.CodeBudgetExceeded)

	// Fixpoint round cap: the envelope carries the partial progress.
	resp = postJSON(t, ts.URL+"/v1/ns/inv/query", queryRequest{
		Query:  "q(X,Y) :- r(X,Z), s(Z,Y).",
		Budget: &budgetSpec{MaxFixpointRounds: 1},
	})
	env := wantError(t, resp, http.StatusUnprocessableEntity, engine.CodeBudgetExceeded)
	if env.PartialStats == nil || env.PartialStats.Iterations != 1 {
		t.Fatalf("partial stats = %+v, want iterations = 1", env.PartialStats)
	}
}

// TestDeadline408: an exhausted per-request deadline is a 408 with code
// "canceled".
func TestDeadline408(t *testing.T) {
	_, ts := testServer(t, testNamespace(t, DefaultNamespace, 1500, Config{}))
	resp := postJSON(t, ts.URL+"/v1/query", queryRequest{
		Query:  "q(A,B,C,D) :- r(A,M), s(M,B), r(C,N), s(N,D).", // ~2.25M-row cross product
		Budget: &budgetSpec{DeadlineMS: 1},
	})
	wantError(t, resp, http.StatusRequestTimeout, engine.CodeCanceled)
}

// TestOverload429RetryAfter: with one execution slot and no queue, a request
// arriving while the slot is held is shed as 429, and the response carries
// Retry-After >= 1 both as a header and in the envelope. This is the
// regression test for the truncated-retry-hint bug: the engine's hint is in
// the tens of microseconds when it is cold, which int seconds used to
// truncate to the nonsensical "Retry-After: 0".
func TestOverload429RetryAfter(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 1500, Config{MaxConcurrent: 1, MaxQueue: -1})
	_, ts := testServer(t, ns)

	// Occupy the only slot with a heavy cross product (bounded by a deadline
	// so the test always terminates).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postJSON(t, ts.URL+"/v1/query", queryRequest{
			Query:  "q(A,B,C,D) :- r(A,M), s(M,B), r(C,N), s(N,D).",
			Budget: &budgetSpec{DeadlineMS: 1500},
		})
		resp.Body.Close()
	}()
	defer wg.Wait()

	admitted := uint64(1) // the heavy query holds the slot whenever a probe is shed
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "q(X) :- r(k1,X)."})
		if resp.StatusCode != http.StatusTooManyRequests {
			readBody(t, resp) // probe won the slot; retry until shed
			admitted++
			time.Sleep(time.Millisecond)
			continue
		}
		header := resp.Header.Get("Retry-After")
		env := wantError(t, resp, http.StatusTooManyRequests, engine.CodeOverloaded)
		secs, err := strconv.Atoi(header)
		if err != nil || secs < 1 {
			t.Fatalf("Retry-After header = %q, want integer >= 1", header)
		}
		if env.RetryAfterS < 1 || env.RetryAfterS != secs {
			t.Fatalf("envelope retry_after_s = %d, header = %d", env.RetryAfterS, secs)
		}
		// The server's admission counters equal what the clients saw: one
		// admission per answered request, one shed per 429.
		resp, err = http.Get(ts.URL + "/v1/ns/default/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st namespaceStats
		decodeInto(t, resp, &st)
		if adm := st.Engine.Admission; adm.Admitted != admitted || adm.Shed != 1 {
			t.Fatalf("admission counters = %+v, clients saw %d admitted and 1 shed", adm, admitted)
		}
		return
	}
	t.Fatal("no 429 observed while the only slot was held")
}

// TestInternal500Envelope: a panic surfaces as 500/"internal" with the panic
// value in the message and the stack withheld.
func TestInternal500Envelope(t *testing.T) {
	err := &engine.InternalError{Value: "boom", Stack: []byte("goroutine 1 [running] secret frames")}
	rec := httptest.NewRecorder()
	writeEngineError(rec, err, http.StatusInternalServerError, engine.CodeInternal)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	var body errorBody
	if jsonErr := json.Unmarshal(rec.Body.Bytes(), &body); jsonErr != nil {
		t.Fatal(jsonErr)
	}
	if body.Error.Code != engine.CodeInternal {
		t.Fatalf("code = %q", body.Error.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("boom")) {
		t.Fatalf("panic value missing from envelope: %s", rec.Body.Bytes())
	}
	if bytes.Contains(rec.Body.Bytes(), []byte("secret frames")) {
		t.Fatalf("stack leaked onto the wire: %s", rec.Body.Bytes())
	}
}

// TestRetryAfterSecondsRounding pins the header arithmetic: round up, floor
// at one second.
func TestRetryAfterSecondsRounding(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Microsecond, 1},
		{50 * time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
		{10 * time.Second, 10},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 10, Config{})
	_, ts := testServer(t, ns)

	// One prepare (a plan-cache miss), two execs (neither a hit nor a miss).
	resp := postJSON(t, ts.URL+"/v1/prepare", prepareRequest{Query: "q(X) :- r(k1,X)."})
	var prep prepareResponse
	decodeInto(t, resp, &prep)
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/exec", execRequest{Handle: prep.Handle, Args: Row{"k1"}})
		readBody(t, resp)
	}

	resp, err := http.Get(ts.URL + "/v1/ns/default/stats")
	if err != nil {
		t.Fatal(err)
	}
	var one namespaceStats
	decodeInto(t, resp, &one)
	if one.Namespace != DefaultNamespace {
		t.Fatalf("stats namespace = %q", one.Namespace)
	}
	if e := one.Engine; e.Misses != 1 || e.Hits != 0 || e.CacheLen != 1 {
		t.Fatalf("engine plan cache: misses %d hits %d len %d, want 1 0 1", e.Misses, e.Hits, e.CacheLen)
	}
	if one.Engine.ExecCount < 2 {
		t.Fatalf("engine ExecCount = %d, want >= 2", one.Engine.ExecCount)
	}

	// The bare route returns every namespace.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var all map[string]namespaceStats
	decodeInto(t, resp, &all)
	if len(all) != 1 || all[DefaultNamespace].Namespace != DefaultNamespace {
		t.Fatalf("all stats = %+v", all)
	}

	resp, err = http.Get(ts.URL + "/v1/ns/nope/stats")
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusNotFound, CodeUnknownNamespace)
}

// TestDrainRefusesNewRequests: after Drain every request — health checks
// included — is 503/shutting_down.
func TestDrainRefusesNewRequests(t *testing.T) {
	srv, ts := testServer(t, testNamespace(t, DefaultNamespace, 10, Config{}))
	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusServiceUnavailable, CodeShuttingDown)
	resp = postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "q(X,Y) :- r(X,Z), s(Z,Y)."})
	wantError(t, resp, http.StatusServiceUnavailable, CodeShuttingDown)
}

// loadConfig boots a one-namespace directory whose config.json is config.
func loadConfig(t *testing.T, config string) error {
	t.Helper()
	dir := t.TempDir()
	nsDir := filepath.Join(dir, "alpha")
	if err := os.Mkdir(nsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		"views.dl":    "v(A,B) :- r(A,C), s(C,B).\n",
		"config.json": config,
	} {
		if err := os.WriteFile(filepath.Join(nsDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadDirWith(dir, DirOptions{})
	return err
}

// wantRemovedKey asserts that a config.json setting key refuses to boot,
// naming the key and the file.
func wantRemovedKey(t *testing.T, key, config string) {
	t.Helper()
	err := loadConfig(t, config)
	if err == nil {
		t.Fatalf("config.json with %q accepted", key)
	}
	for _, want := range []string{`"` + key + `"`, "config.json"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to name %s", err, want)
		}
	}
}

// TestLoadDirRejectsRemovedShardsKey: the "shards" config key was removed
// with the hash-partitioned layout; a deployment that still sets it
// must refuse to boot, naming the key and the file.
func TestLoadDirRejectsRemovedShardsKey(t *testing.T) {
	wantRemovedKey(t, "shards", `{"live_updates": true, "shards": 4}`)
}

// TestLoadDirRejectsRemovedSessionKeys: "max_sessions" and "session_ttl_ms"
// configured the session table that prepared handles once lived in; handles
// now live in the engine's plan cache, bounded by "cache_size" alone, and a
// config that still sets either key refuses to boot.
func TestLoadDirRejectsRemovedSessionKeys(t *testing.T) {
	wantRemovedKey(t, "max_sessions", `{"cache_size": 8, "max_sessions": 64}`)
	wantRemovedKey(t, "session_ttl_ms", `{"session_ttl_ms": 60000}`)
}
