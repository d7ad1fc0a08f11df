package main

// In-memory HTTP harness: requests go straight into
// server.New(reg).Handler().ServeHTTP with a byte-slice body and a reusable
// response recorder. There is no socket: the probe behind this benchmark
// showed a loopback listener adds ±12% of kernel and net/http noise that no
// change in this repository can move.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/storage"
)

// request is one distinct operation of a workload: what to send and what a
// correct reply looks like. want is the reply as the server encodes it today
// (the fast comparison); rows / batch are the meaning of the reply, used when
// the bytes differ, so a change of encoding detail is not counted as a wrong
// answer.
type request struct {
	path string
	body []byte
	read bool

	want  []byte
	rows  [][]string // expected answer rows, sorted (query and exec)
	batch *batchWant // expected acknowledgement (batch)

	// The same operation as the engine's API takes it, for the traced run's
	// calls below the handler: the prepared text and arguments of an exec,
	// the text of a query, the tuples of a batch.
	prep     int
	args     []string
	text     string
	ins, del map[string][]storage.Tuple
}

type batchWant struct{ tuples, deleted int }

type answersBody struct {
	Answers [][]string `json:"answers"`
	Count   int        `json:"count"`
}

// ackBody is the acknowledgement of a batch, fields in the server's order.
type ackBody struct {
	Applied    bool `json:"applied"`
	Predicates int  `json:"predicates"`
	Tuples     int  `json:"tuples"`
	Deleted    int  `json:"deleted,omitempty"`
}

// encodeAnswers renders rows the way the server does: one JSON object and a
// newline.
func encodeAnswers(rows [][]string) []byte {
	if rows == nil {
		rows = [][]string{}
	}
	b, err := json.Marshal(answersBody{Answers: rows, Count: len(rows)})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return append(b, '\n')
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *recorder) Header() http.Header { return w.hdr }
func (w *recorder) WriteHeader(s int)   { w.status = s }
func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(p)
}

// client issues requests against a handler from one goroutine.
type client struct {
	h    http.Handler
	w    recorder
	urls map[string]*url.URL
}

func newClient(h http.Handler) *client {
	return &client{h: h, w: recorder{hdr: make(http.Header)}, urls: make(map[string]*url.URL)}
}

// do sends one request and returns how long the handler took. The reply stays
// in c.w until the next call.
func (c *client) do(path string, body []byte) time.Duration {
	u := c.urls[path]
	if u == nil {
		u = &url.URL{Path: path}
		c.urls[path] = u
	}
	c.w.status = 0
	c.w.buf.Reset()
	clear(c.w.hdr)
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          "bench",
	}
	start := time.Now()
	c.h.ServeHTTP(&c.w, req)
	return time.Since(start)
}

// ok reports whether the reply held in c.w is the correct one for r.
func (c *client) ok(r *request) bool {
	if c.w.status != http.StatusOK {
		return false
	}
	got := c.w.buf.Bytes()
	if bytes.Equal(got, r.want) {
		return true
	}
	if r.batch != nil {
		var b ackBody
		return json.Unmarshal(got, &b) == nil && b.Applied && b.Tuples == r.batch.tuples && b.Deleted == r.batch.deleted
	}
	var a answersBody
	if json.Unmarshal(got, &a) != nil || a.Count != len(a.Answers) {
		return false
	}
	return sameRows(a.Answers, r.rows)
}

// sameRows compares two answer sets without regard to order.
func sameRows(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	got = sortedRows(got)
	want = sortedRows(want)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

func sortedRows(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// actor is one closed-loop client of a round: it sends its requests in order,
// each only after the previous reply. A gated actor takes one token per
// request; an actor with a release channel hands out tokens before each of
// its own requests. That is how churn_durable overlaps reads with batches
// while both counts stay fixed.
type actor struct {
	c        *client
	reqs     []*request
	gate     <-chan struct{}
	release  chan<- struct{}
	releaseN int

	lat     []int64 // handler time per request, ns
	elapsed time.Duration
	bytes   int64 // reply bytes
	failed  int
}

func (a *actor) run() {
	t0 := time.Now()
	defer func() { a.elapsed = time.Since(t0) }()
	for _, r := range a.reqs {
		for i := 0; i < a.releaseN; i++ {
			a.release <- struct{}{}
		}
		if a.gate != nil {
			<-a.gate
		}
		d := a.c.do(r.path, r.body)
		a.lat = append(a.lat, int64(d))
		a.bytes += int64(a.c.w.buf.Len())
		if !a.c.ok(r) {
			a.failed++
		}
	}
}
