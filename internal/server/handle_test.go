package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// A prepared handle is valid while the namespace's engine caches its plan;
// these tests run a one-plan cache so that every other template evicts it.

const (
	handleQuery = "q(Y) :- r(k3,Z), s(Z,Y)."
	otherQuery  = "q(X,Y) :- r(X,Y)."
)

// prepareHandle prepares text through c and returns the handle.
func prepareHandle(t testing.TB, c *memClient, text string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": text})
	c.post("/v1/prepare", body)
	var reply prepareResponse
	if err := json.Unmarshal(c.w.buf.Bytes(), &reply); err != nil || c.w.status != http.StatusOK {
		t.Fatalf("prepare %q: status %d: %s", text, c.w.status, c.w.buf.Bytes())
	}
	return reply.Handle
}

// lookupReplies holds, per key, the exec reply of handleQuery's template
// under that key from a namespace with the default cache.
func lookupReplies(t testing.TB, keys []string) map[string]string {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Add(testNamespace(t, DefaultNamespace, 30, Config{})); err != nil {
		t.Fatal(err)
	}
	c := newMemClient(New(reg).Handler())
	handle := prepareHandle(t, c, handleQuery)
	want := make(map[string]string, len(keys))
	for _, k := range keys {
		c.post("/v1/exec", execBody(handle, k))
		if c.w.status != http.StatusOK {
			t.Fatalf("reference exec %s: status %d: %s", k, c.w.status, c.w.buf.Bytes())
		}
		want[k] = c.w.buf.String()
	}
	return want
}

func execBody(handle, key string) []byte {
	body, _ := json.Marshal(map[string]any{"handle": handle, "args": []string{key}})
	return body
}

// unknownHandle reports whether c holds a 404 unknown_handle reply.
func unknownHandle(c *memClient) bool {
	var body errorBody
	return c.w.status == http.StatusNotFound &&
		json.Unmarshal(c.w.buf.Bytes(), &body) == nil && body.Error.Code == CodeUnknownHandle
}

// TestEvictedHandleReprepares: a handle whose plan the LRU evicted answers
// 404 unknown_handle, and re-preparing the template returns the same handle,
// which answers again.
func TestEvictedHandleReprepares(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 30, Config{CacheSize: 1})
	reg := NewRegistry()
	if err := reg.Add(ns); err != nil {
		t.Fatal(err)
	}
	c := newMemClient(New(reg).Handler())
	want := lookupReplies(t, []string{"k7"})

	handle := prepareHandle(t, c, handleQuery)
	c.post("/v1/exec", execBody(handle, "k7"))
	if got := c.w.buf.String(); got != want["k7"] {
		t.Fatalf("exec = %q, want %q", got, want["k7"])
	}
	query, _ := json.Marshal(map[string]string{"query": otherQuery})
	c.post("/v1/query", query)
	if c.w.status != http.StatusOK {
		t.Fatalf("query: status %d: %s", c.w.status, c.w.buf.Bytes())
	}
	c.post("/v1/exec", execBody(handle, "k7"))
	if !unknownHandle(c) {
		t.Fatalf("exec of an evicted handle: status %d: %s, want 404 %s", c.w.status, c.w.buf.Bytes(), CodeUnknownHandle)
	}
	if again := prepareHandle(t, c, handleQuery); again != handle {
		t.Fatalf("re-prepare returned handle %s, want %s", again, handle)
	}
	c.post("/v1/exec", execBody(handle, "k7"))
	if got := c.w.buf.String(); got != want["k7"] {
		t.Fatalf("exec after re-prepare = %q, want %q", got, want["k7"])
	}
	if st := ns.Engine.Stats(); st.Evictions < 2 || st.CacheLen != 1 {
		t.Fatalf("engine evictions %d, cache length %d", st.Evictions, st.CacheLen)
	}
}

// TestExecWhileLRUCycles: two clients exec one handle, re-preparing it when
// told it is unknown, while a third cycles the one-plan LRU with ad-hoc
// queries of other templates. Every exec reply is the right answers or 404
// unknown_handle; under -race this also checks that a cached handle is
// never written while an exec reads it.
func TestExecWhileLRUCycles(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 30, Config{CacheSize: 1})
	reg := NewRegistry()
	if err := reg.Add(ns); err != nil {
		t.Fatal(err)
	}
	h := New(reg).Handler()
	keys := []string{"k1", "k7", "k12", "nope"}
	want := lookupReplies(t, keys)
	handle := prepareHandle(t, newMemClient(h), handleQuery)

	const execs = 300
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		errs    = make(chan string, 2)
		answers [2]int
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := newMemClient(h)
			for i := 0; i < execs; i++ {
				k := keys[(g+i)%len(keys)]
				c.post("/v1/exec", execBody(handle, k))
				switch got := c.w.buf.String(); {
				case got == want[k]:
					answers[g]++
				case unknownHandle(c):
					c.post("/v1/prepare", []byte(`{"query": "`+handleQuery+`"}`))
				default:
					errs <- fmt.Sprintf("exec %s: status %d: %s", k, c.w.status, got)
					return
				}
			}
		}(g)
	}
	cycled := make(chan int)
	go func() {
		c := newMemClient(h)
		texts := []string{otherQuery, "q(X) :- s(X,Y).", "q(A,B) :- r(A,C), s(C,B)."}
		n := 0
		for {
			select {
			case <-stop:
				cycled <- n
				return
			default:
			}
			query, _ := json.Marshal(map[string]string{"query": texts[n%len(texts)]})
			c.post("/v1/query", query)
			if c.w.status != http.StatusOK {
				t.Errorf("query: status %d: %s", c.w.status, c.w.buf.Bytes())
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	n := <-cycled
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	t.Logf("%d ad-hoc queries; %d and %d of %d execs answered", n, answers[0], answers[1], execs)
}
