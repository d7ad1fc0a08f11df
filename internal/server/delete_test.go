package server

import (
	"net/http"
	"testing"

	"repro/internal/storage"
)

// TestBatchDeletes: /v1/batch accepts deletions over the wire — alone and
// mixed with inserts — and the namespace serves the maintained state.
func TestBatchDeletes(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 10, Config{LiveUpdates: true})
	_, ts := testServer(t, ns)
	query := func() []storage.Tuple {
		resp := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "q(X,Y) :- r(X,Z), s(Z,Y)"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status = %d (%s)", resp.StatusCode, readBody(t, resp))
		}
		var ar answersResponse
		decodeInto(t, resp, &ar)
		return ar.Answers
	}
	before := query()
	if len(before) != 10 {
		t.Fatalf("initial answers = %d, want 10", len(before))
	}

	// Delete-only batch: r(k0,m0) starves one v row.
	resp := postJSON(t, ts.URL+"/v1/batch", batchRequest{
		Deletes: map[string]Rows{"r": {{"k0", "m0"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete batch status = %d (%s)", resp.StatusCode, readBody(t, resp))
	}
	var br batchResponse
	decodeInto(t, resp, &br)
	if !br.Applied || br.Deleted != 1 || br.Tuples != 0 {
		t.Fatalf("delete batch response = %+v", br)
	}
	if got := query(); len(got) != 9 {
		t.Fatalf("post-delete answers = %d, want 9", len(got))
	}

	// Mixed batch: re-insert r(k0,m0), delete r(k1,m1) — still 9 answers,
	// but a different set.
	resp = postJSON(t, ts.URL+"/v1/batch", batchRequest{
		Updates: map[string]Rows{"r": {{"k0", "m0"}}},
		Deletes: map[string]Rows{"r": {{"k1", "m1"}}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status = %d (%s)", resp.StatusCode, readBody(t, resp))
	}
	decodeInto(t, resp, &br)
	if !br.Applied || br.Deleted != 1 || br.Tuples != 1 || br.Predicates != 1 {
		t.Fatalf("mixed batch response = %+v", br)
	}
	after := query()
	if len(after) != 9 {
		t.Fatalf("post-mixed answers = %d, want 9", len(after))
	}
	found := false
	for _, a := range after {
		if a[0] == "k1" {
			t.Fatalf("deleted k1 still answered: %v", a)
		}
		if a[0] == "k0" {
			found = true
		}
	}
	if !found {
		t.Fatal("re-inserted k0 not answered")
	}

	// Deleting from a view extent maps to the engine's typed error.
	resp = postJSON(t, ts.URL+"/v1/batch", batchRequest{
		Deletes: map[string]Rows{"v": {{"k2", "x2"}}},
	})
	wantError(t, resp, http.StatusBadRequest, CodeBadRequest)
}

// TestUnknownFieldRejected: every POST endpoint refuses bodies carrying
// fields this server does not understand — a client speaking a newer
// protocol revision must get a typed error, not a silently degraded answer
// — while syntactically broken JSON keeps the bad_request code.
func TestUnknownFieldRejected(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 5, Config{LiveUpdates: true})
	_, ts := testServer(t, ns)
	endpoints := []struct {
		path string
		body map[string]any
	}{
		{"/v1/prepare", map[string]any{"query": "q(X) :- r(X,Y)", "qery": "typo"}},
		{"/v1/exec", map[string]any{"handle": "h", "argz": []string{"k0"}}},
		{"/v1/query", map[string]any{"query": "q(X) :- r(X,Y)", "dedupe": true}},
		{"/v1/batch", map[string]any{"upserts": map[string]any{"r": [][]string{{"a", "b"}}}}},
	}
	for _, ep := range endpoints {
		resp := postJSON(t, ts.URL+ep.path, ep.body)
		env := wantError(t, resp, http.StatusBadRequest, CodeInvalidQuery)
		if env.Message == "" {
			t.Fatalf("%s: empty error message", ep.path)
		}
	}
	// Nothing was applied along the way.
	resp := postJSON(t, ts.URL+"/v1/query", queryRequest{Query: "q(X,Y) :- r(X,Y)"})
	var ar answersResponse
	decodeInto(t, resp, &ar)
	if ar.Count != 5 {
		t.Fatalf("base mutated by rejected requests: %d rows", ar.Count)
	}
	// Malformed JSON is still a plain bad_request.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantError(t, resp, http.StatusBadRequest, CodeBadRequest)
}

// TestBatchAckCountsEachPredicateOnce: the ack's predicates counts every
// predicate the batch names once, whether it is inserted into, deleted
// from, or both.
func TestBatchAckCountsEachPredicateOnce(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 10, Config{LiveUpdates: true})
	_, ts := testServer(t, ns)
	for _, tc := range []struct {
		req  batchRequest
		want int
	}{
		{batchRequest{Updates: map[string]Rows{"r": {{"k0", "m0"}}}}, 1},
		{batchRequest{Deletes: map[string]Rows{"s": {{"m0", "x0"}}}}, 1},
		{batchRequest{Updates: map[string]Rows{"r": {{"k1", "m1"}}}, Deletes: map[string]Rows{"r": {{"k1", "m1"}}, "s": {{"m1", "x1"}}}}, 2},
		{batchRequest{Updates: map[string]Rows{"r": {{"k2", "m2"}}, "s": {{"m2", "x2"}}}, Deletes: map[string]Rows{"s": {{"m3", "x3"}}}}, 2},
		{batchRequest{Updates: map[string]Rows{"r": {{"k4", "m4"}}}, Deletes: map[string]Rows{"s": {{"m4", "x4"}}}}, 2},
	} {
		resp := postJSON(t, ts.URL+"/v1/batch", tc.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%+v: status %d (%s)", tc.req, resp.StatusCode, readBody(t, resp))
		}
		var br batchResponse
		decodeInto(t, resp, &br)
		if br.Predicates != tc.want {
			t.Fatalf("%+v: ack %+v, want predicates %d", tc.req, br, tc.want)
		}
	}
}
