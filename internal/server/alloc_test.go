package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"testing"
)

// memRecorder is a reusable in-memory ResponseWriter: the allocation tests
// and handler benchmarks drive Handler().ServeHTTP directly, without a
// socket, so what they count is this package and the engine below it.
type memRecorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *memRecorder) Header() http.Header { return w.hdr }
func (w *memRecorder) WriteHeader(s int)   { w.status = s }
func (w *memRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

// memClient issues POSTs against a handler from one goroutine. Building the
// request costs four allocations (Request, Header, Reader, NopCloser); they
// are part of every count below.
type memClient struct {
	h http.Handler
	w memRecorder
	u map[string]*url.URL
}

func newMemClient(h http.Handler) *memClient {
	return &memClient{h: h, w: memRecorder{hdr: make(http.Header)}, u: make(map[string]*url.URL)}
}

func (c *memClient) url(path string) *url.URL {
	u := c.u[path]
	if u == nil {
		u = &url.URL{Path: path}
		c.u[path] = u
	}
	return u
}

// serve sends one request; the reply stays in c.w until the next.
func (c *memClient) serve(req *http.Request) {
	c.w.status = 0
	c.w.buf.Reset()
	clear(c.w.hdr)
	c.h.ServeHTTP(&c.w, req)
}

func (c *memClient) post(path string, body []byte) {
	c.serve(&http.Request{
		Method:        http.MethodPost,
		URL:           c.url(path),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          "test",
	})
}

// pointLookupBed serves the r/s point-lookup namespace under the benchmark's
// configuration shape (live, admission on) and prepares the lookup template.
func pointLookupBed(t testing.TB) (c *memClient, execBody, queryBody []byte) {
	t.Helper()
	ns := testNamespace(t, DefaultNamespace, 400, Config{LiveUpdates: true, MaxConcurrent: 4, MaxQueue: 64})
	reg := NewRegistry()
	if err := reg.Add(ns); err != nil {
		t.Fatal(err)
	}
	c = newMemClient(New(reg).Handler())
	const text = "q(Y) :- r(k7,Z), s(Z,Y)."
	prep, _ := json.Marshal(map[string]string{"query": text})
	c.post("/v1/prepare", prep)
	var reply prepareResponse
	if err := json.Unmarshal(c.w.buf.Bytes(), &reply); err != nil || c.w.status != http.StatusOK {
		t.Fatalf("prepare: status %d: %s", c.w.status, c.w.buf.Bytes())
	}
	execBody, _ = json.Marshal(map[string]any{"handle": reply.Handle, "args": []string{"k11"}})
	queryBody, _ = json.Marshal(map[string]string{"query": text})
	return c, execBody, queryBody
}

const wantPointReply = `{"answers":[["x4"]],"count":1}` + "\n"

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestHandleExecAllocs is the allocation regression guard of the wire path: a
// prepared point lookup through Handler().ServeHTTP, request construction
// included. The budget is the measured count plus two.
func TestHandleExecAllocs(t *testing.T) {
	c, execBody, _ := pointLookupBed(t)
	c.post("/v1/exec", execBody)
	if got := c.w.buf.String(); got != wantPointReply {
		t.Fatalf("reply = %q, want %q", got, wantPointReply)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const measured = 7
	if n := testing.AllocsPerRun(200, func() { c.post("/v1/exec", execBody) }); n > measured+2 {
		t.Fatalf("/v1/exec point lookup: %.0f allocs/op, budget %d", n, measured+2)
	}
}

func BenchmarkHandleExec(b *testing.B) {
	c, execBody, _ := pointLookupBed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.post("/v1/exec", execBody)
	}
	if c.w.status != http.StatusOK {
		b.Fatalf("status %d: %s", c.w.status, c.w.buf.Bytes())
	}
}

// BenchmarkHandleQueryHit is the one-shot path on a plan-cache hit: parse and
// canonicalise per request, no rewriting search.
func BenchmarkHandleQueryHit(b *testing.B) {
	c, _, queryBody := pointLookupBed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.post("/v1/query", queryBody)
	}
	if c.w.status != http.StatusOK {
		b.Fatalf("status %d: %s", c.w.status, c.w.buf.Bytes())
	}
}
