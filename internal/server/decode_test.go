package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/storage"
)

// The request decoder is pinned three ways: a table of inputs with the
// request or error code each must decode to, the same table and a fuzz
// target run against encoding/json over the same structs (the decoder this
// one replaced), and handler-level tests of the behaviours that changed on
// purpose.

type endpoint uint8

const (
	epPrepare endpoint = iota
	epExec
	epQuery
	epBatch
	numEndpoints
)

func (ep endpoint) String() string { return [...]string{"prepare", "exec", "query", "batch"}[ep] }

// decoded is a request of any endpoint in comparable form.
type decoded struct {
	Namespace, Handle, Query string
	Args                     []string // nil when empty
	Budget                   *budgetSpec
	Updates, Deletes         map[string]Rows
}

func comparable(ns, handle, query string, args Row, b *budgetSpec) decoded {
	d := decoded{Namespace: ns, Handle: handle, Query: query}
	if len(args) > 0 {
		d.Args = append([]string(nil), args...)
	}
	if b != nil {
		c := *b
		d.Budget = &c
	}
	return d
}

// decodeWire runs the server's decoder over body, asking for the members
// the endpoint's handler asks for. A batch's rows live in the wire state
// until its release, so they are copied out before it.
func decodeWire(ep endpoint, body []byte) (decoded, error) {
	st := acquireWire()
	defer st.release()
	var (
		ns, query        string
		handle           []byte
		args             Row
		budget           *budgetSpec
		updates, deletes map[string][]storage.Tuple
	)
	m := [numEndpoints]members{
		epPrepare: {namespace: &ns, query: &query},
		epExec:    {namespace: &ns, handle: &handle, args: &args, budget: &budget},
		epQuery:   {namespace: &ns, query: &query, budget: &budget},
		epBatch:   {namespace: &ns, updates: &updates, deletes: &deletes, budget: &budget},
	}[ep]
	r := &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
	err := st.decode(r, m)
	d := comparable(ns, string(handle), query, args, budget)
	d.Updates, d.Deletes = ownRows(updates), ownRows(deletes)
	return d, err
}

// ownRows copies a decoded batch map, rows and columns, out of the wire
// state that holds it.
func ownRows(m map[string][]storage.Tuple) map[string]Rows {
	if m == nil {
		return nil
	}
	out := make(map[string]Rows, len(m))
	for pred, rows := range m {
		own := make(Rows, len(rows))
		for i, row := range rows {
			own[i] = slices.Clone(row)
		}
		out[pred] = own
	}
	return out
}

// execRequest is the exec body as a client writes it. The handler decodes
// into locals (the handle stays bytes of the request body), so the struct
// exists for the tests only: to marshal requests, and as encoding/json's
// decode target below.
type execRequest struct {
	Namespace string      `json:"namespace,omitempty"`
	Handle    string      `json:"handle"`
	Args      Row         `json:"args"`
	Budget    *budgetSpec `json:"budget,omitempty"`
}

// batchRequest is the batch body as a client writes it: inserts under
// "updates", deletions under "deletes", either or both. The handler decodes
// into its wireState's maps, so like execRequest the struct exists for the
// tests only.
type batchRequest struct {
	Namespace string          `json:"namespace,omitempty"`
	Updates   map[string]Rows `json:"updates"`
	Deletes   map[string]Rows `json:"deletes,omitempty"`
	Budget    *budgetSpec     `json:"budget,omitempty"`
}

// decodeStdlib is the decoder this package used before: encoding/json with
// DisallowUnknownFields over the request structs. trailing reports bytes
// other than white space after the value it read.
func decodeStdlib(ep endpoint, body []byte) (d decoded, err error, trailing bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	switch ep {
	case epPrepare:
		var req prepareRequest
		err = dec.Decode(&req)
		d = comparable(req.Namespace, "", req.Query, nil, nil)
	case epExec:
		var req execRequest
		err = dec.Decode(&req)
		d = comparable(req.Namespace, req.Handle, "", req.Args, req.Budget)
	case epQuery:
		var req queryRequest
		err = dec.Decode(&req)
		d = comparable(req.Namespace, "", req.Query, nil, req.Budget)
	default:
		var req batchRequest
		err = dec.Decode(&req)
		d = comparable(req.Namespace, "", "", nil, req.Budget)
		d.Updates, d.Deletes = req.Updates, req.Deletes
	}
	var syntax *json.SyntaxError
	if err == nil || !(errors.As(err, &syntax) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		rest := body[dec.InputOffset():]
		trailing = len(bytes.TrimLeft(rest, " \t\r\n")) > 0
	}
	return d, err, trailing
}

// wireCode is the error code writeRequestError answers err with.
func wireCode(err error) string {
	var unknown errUnknownField
	switch {
	case err == nil:
		return ""
	case errors.As(err, &unknown):
		return CodeInvalidQuery
	}
	return CodeBadRequest
}

// stdlibCode classifies the way the replaced decode function did.
func stdlibCode(err error) string {
	switch {
	case err == nil:
		return ""
	case strings.Contains(err.Error(), "unknown field"):
		return CodeInvalidQuery
	}
	return CodeBadRequest
}

var memberNames = []string{
	"namespace", "handle", "args", "budget", "query", "updates", "deletes",
	"deadline_ms", "max_result_rows", "max_derived_tuples", "max_fixpoint_rounds",
}

// hasFoldedName reports whether the document has a member whose name equals
// a request member only under case folding: encoding/json took it for that
// member, the scanner calls it unknown.
func hasFoldedName(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	type level struct{ object, key bool }
	var stack []level
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		isKey := top >= 0 && stack[top].object && stack[top].key
		if top >= 0 && stack[top].object {
			stack[top].key = !stack[top].key
		}
		switch v := tok.(type) {
		case json.Delim:
			switch v {
			case '{':
				stack = append(stack, level{object: true, key: true})
			case '[':
				stack = append(stack, level{})
			default:
				stack = stack[:top]
			}
		case string:
			if !isKey {
				continue
			}
			for _, name := range memberNames {
				if v != name && strings.EqualFold(v, name) {
					return true
				}
			}
		}
	}
}

// checkAgainstStdlib fails unless the scanner and encoding/json agree on
// body, up to the two deliberate differences.
func checkAgainstStdlib(t *testing.T, ep endpoint, body []byte) {
	t.Helper()
	if hasFoldedName(body) {
		return
	}
	got, gotErr := decodeWire(ep, body)
	want, wantErr, trailing := decodeStdlib(ep, body)
	wantCode := stdlibCode(wantErr)
	if trailing {
		wantCode = CodeBadRequest
	}
	if code := wireCode(gotErr); code != wantCode {
		t.Fatalf("%s %q: scanner says %q (%v), encoding/json says %q (%v, trailing=%v)",
			ep, body, code, gotErr, wantCode, wantErr, trailing)
	}
	if wantCode == "" && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q:\nscanner       %+v\nencoding/json %+v", ep, body, got, want)
	}
}

var decodeCases = []struct {
	name  string
	ep    endpoint
	input string
	want  decoded
	code  string // "" = decodes
	// differs marks the inputs on which the scanner departs from
	// encoding/json on purpose.
	differs bool
}{
	// ---- well-formed requests ----
	{name: "exec", ep: epExec, input: `{"handle":"abc123","args":["k1","k2"]}`,
		want: decoded{Handle: "abc123", Args: []string{"k1", "k2"}}},
	{name: "exec members in any order, white space", ep: epExec,
		input: " \t\r\n{ \"args\" : [ \"a\" , \"b\" ] ,\n\"namespace\":\"t\", \"handle\" : \"h\" }\n",
		want:  decoded{Namespace: "t", Handle: "h", Args: []string{"a", "b"}}},
	{name: "exec no args", ep: epExec, input: `{"handle":"h","args":[]}`, want: decoded{Handle: "h"}},
	{name: "exec empty object", ep: epExec, input: `{}`},
	{name: "exec null body", ep: epExec, input: `null`},
	{name: "exec null members", ep: epExec, input: `{"namespace":null,"handle":null,"args":null,"budget":null}`},
	{name: "exec budget", ep: epExec,
		input: `{"handle":"h","budget":{"deadline_ms":250,"max_result_rows":10,"max_derived_tuples":-3,"max_fixpoint_rounds":0}}`,
		want:  decoded{Handle: "h", Budget: &budgetSpec{DeadlineMS: 250, MaxResultRows: 10, MaxDerivedTuples: -3}}},
	{name: "exec empty budget is set", ep: epExec, input: `{"budget":{}}`, want: decoded{Budget: &budgetSpec{}}},
	{name: "query", ep: epQuery, input: `{"query":"q(X) :- r(X,Y).","namespace":"tenant-b"}`,
		want: decoded{Namespace: "tenant-b", Query: "q(X) :- r(X,Y)."}},
	{name: "prepare", ep: epPrepare, input: `{"query":"q(Y) :- r(k3,Z), s(Z,Y)."}`,
		want: decoded{Query: "q(Y) :- r(k3,Z), s(Z,Y)."}},
	{name: "batch", ep: epBatch,
		input: `{"updates":{"r":[["a","b"],["c","d"]],"s":[]},"deletes":{"r":[["x","y"]]}}`,
		want: decoded{
			Updates: map[string]Rows{"r": {{"a", "b"}, {"c", "d"}}, "s": {}},
			Deletes: map[string]Rows{"r": {{"x", "y"}}}}},
	{name: "batch null rows and null row", ep: epBatch, input: `{"updates":{"r":null,"s":[null,[]]}}`,
		want: decoded{Updates: map[string]Rows{"r": {}, "s": {{}, {}}}}},
	{name: "batch empty maps", ep: epBatch, input: `{"updates":{},"deletes":null}`,
		want: decoded{Updates: map[string]Rows{}}},

	// ---- strings ----
	{name: "escapes", ep: epExec, input: `{"args":["\"\\\/\b\f\n\r\t","\u0041\u00e9\u65e5","\ud83d\ude00"]}`,
		want: decoded{Args: []string{"\"\\/\b\f\n\r\t", "Aé日", "😀"}}},
	{name: "raw UTF-8 and DEL", ep: epExec, input: "{\"args\":[\"日本語 ⟨v_f0:a⟩\x7f\"]}",
		want: decoded{Args: []string{"日本語 ⟨v_f0:a⟩\x7f"}}},
	{name: "lone surrogates become U+FFFD", ep: epExec, input: `{"args":["\ud800","\udc00x","\ud800\u0041","\ud800\ud800\udc00"]}`,
		want: decoded{Args: []string{"\ufffd", "\ufffdx", "\ufffdA", "\ufffd\U00010000"}}},
	{name: "invalid UTF-8 becomes U+FFFD", ep: epExec, input: "{\"handle\":\"a\xffb\",\"args\":[\"\xc3\x28\"]}",
		want: decoded{Handle: "a\ufffdb", Args: []string{"\ufffd("}}},
	{name: "escaped member name", ep: epExec, input: `{"h\u0061ndle":"h"}`, want: decoded{Handle: "h"}},
	{name: "escaped handle", ep: epExec, input: `{"handle":"a\u0062c"}`, want: decoded{Handle: "abc"}},
	{name: "control character in string", ep: epExec, input: "{\"handle\":\"a\nb\"}", code: CodeBadRequest},
	{name: "bad escape", ep: epExec, input: `{"handle":"\x"}`, code: CodeBadRequest},
	{name: "single-quote escape", ep: epExec, input: `{"handle":"\'"}`, code: CodeBadRequest},
	{name: "short unicode escape", ep: epExec, input: `{"handle":"\u12"}`, code: CodeBadRequest},
	{name: "unterminated string", ep: epExec, input: `{"handle":"abc`, code: CodeBadRequest},

	// ---- columns ----
	{name: "b64 column", ep: epExec, input: `{"args":[{"b64":"//4B"},"k",{"b64":""}]}`,
		want: decoded{Args: []string{"\xff\xfe\x01", "k", ""}}},
	{name: "b64 last duplicate wins, null keeps", ep: epExec, input: `{"args":[{"b64":"QQ==","b64":"Qg==","b64":null}]}`,
		want: decoded{Args: []string{"B"}}},
	{name: "b64 object ignores other members", ep: epExec, input: `{"args":[{"x":[1,{"y":null}],"B64":"QQ=="},{}]}`,
		want: decoded{Args: []string{"A", ""}}},
	{name: "b64 with line breaks", ep: epExec, input: `{"args":[{"b64":"QU\r\nJD"}]}`, want: decoded{Args: []string{"ABC"}}},
	{name: "bad base64", ep: epExec, input: `{"args":[{"b64":"@@@@"}]}`, code: CodeBadRequest},
	{name: "b64 of wrong type", ep: epExec, input: `{"args":[{"b64":5}]}`, code: CodeBadRequest},
	{name: "row mixing escaped, b64 and plain columns", ep: epBatch,
		input: `{"updates":{"r":[["a\u0062","\u00e9x",{"b64":"//4B"},"",{"b64":"Q\u0051=="},"plain"],["n"]]}}`,
		want:  decoded{Updates: map[string]Rows{"r": {{"ab", "éx", "\xff\xfe\x01", "", "A", "plain"}, {"n"}}}}},
	{name: "number column", ep: epExec, input: `{"args":[42]}`, code: CodeBadRequest},
	{name: "null column", ep: epExec, input: `{"args":[null]}`, code: CodeBadRequest},
	{name: "nested array column", ep: epExec, input: `{"args":[["a"]]}`, code: CodeBadRequest},
	{name: "args not an array", ep: epExec, input: `{"args":"k1"}`, code: CodeBadRequest},
	{name: "rows not an array", ep: epBatch, input: `{"updates":{"r":{"a":1}}}`, code: CodeBadRequest},
	{name: "row not an array", ep: epBatch, input: `{"updates":{"r":["ab"]}}`, code: CodeBadRequest},

	// ---- duplicates ----
	{name: "last duplicate wins", ep: epExec, input: `{"handle":"a","args":["x"],"handle":"b","args":["y","z"]}`,
		want: decoded{Handle: "b", Args: []string{"y", "z"}}},
	{name: "null after a value keeps a string", ep: epExec, input: `{"handle":"a","handle":null}`, want: decoded{Handle: "a"}},
	{name: "repeated budget adds up", ep: epQuery, input: `{"budget":{"deadline_ms":5},"budget":{"max_result_rows":3}}`,
		want: decoded{Budget: &budgetSpec{DeadlineMS: 5, MaxResultRows: 3}}},
	{name: "null clears a budget", ep: epQuery, input: `{"budget":{"deadline_ms":5},"budget":null,"budget":{"max_result_rows":3}}`,
		want: decoded{Budget: &budgetSpec{MaxResultRows: 3}}},
	{name: "repeated updates add up, repeated predicate replaces", ep: epBatch,
		input: `{"updates":{"r":[["a"]],"r":[["b"]]},"updates":{"s":[["c"]]}}`,
		want:  decoded{Updates: map[string]Rows{"r": {{"b"}}, "s": {{"c"}}}}},

	// ---- unknown members: invalid_query ----
	{name: "unknown member", ep: epExec, input: `{"handle":"h","bogus":{"deep":[1,2,{"x":null}]}}`, code: CodeInvalidQuery},
	{name: "unknown member of another endpoint", ep: epQuery, input: `{"query":"q(X) :- r(X).","handle":"h"}`, code: CodeInvalidQuery},
	{name: "deletes is known to batch only", ep: epExec, input: `{"deletes":{}}`, code: CodeInvalidQuery},
	{name: "unknown budget member", ep: epExec, input: `{"budget":{"deadline":5}}`, code: CodeInvalidQuery},
	{name: "empty member name", ep: epPrepare, input: `{"":1}`, code: CodeInvalidQuery},
	{name: "unknown member before a type mismatch", ep: epExec, input: `{"bogus":1,"handle":5}`, code: CodeInvalidQuery},
	{name: "type mismatch before an unknown member", ep: epExec, input: `{"handle":5,"bogus":1}`, code: CodeBadRequest},
	{name: "a bad row beats an earlier unknown member", ep: epExec, input: `{"bogus":1,"args":[5]}`, code: CodeBadRequest},
	{name: "a syntax error beats an earlier unknown member", ep: epExec, input: `{"bogus":1,"handle":"h"`, code: CodeBadRequest},
	{name: "case-folded member name", ep: epExec, input: `{"Handle":"h"}`, code: CodeInvalidQuery, differs: true},
	{name: "case-folded budget member", ep: epQuery, input: `{"budget":{"Deadline_MS":5}}`, code: CodeInvalidQuery, differs: true},
	{name: "long-s member name", ep: epExec, input: "{\"arg\u017f\":[]}", code: CodeInvalidQuery, differs: true},

	// ---- type mismatches: bad_request ----
	{name: "handle is a number", ep: epExec, input: `{"handle":5}`, code: CodeBadRequest},
	{name: "handle is an array", ep: epExec, input: `{"handle":["h"]}`, code: CodeBadRequest},
	{name: "query is an object", ep: epQuery, input: `{"query":{"text":"q"}}`, code: CodeBadRequest},
	{name: "namespace is a bool", ep: epPrepare, input: `{"namespace":true}`, code: CodeBadRequest},
	{name: "budget is an array", ep: epExec, input: `{"budget":[1]}`, code: CodeBadRequest},
	{name: "updates is an array", ep: epBatch, input: `{"updates":[["a"]]}`, code: CodeBadRequest},
	{name: "fractional budget", ep: epExec, input: `{"budget":{"deadline_ms":1.5}}`, code: CodeBadRequest},
	{name: "exponent budget", ep: epExec, input: `{"budget":{"deadline_ms":1e3}}`, code: CodeBadRequest},
	{name: "string budget", ep: epExec, input: `{"budget":{"deadline_ms":"5"}}`, code: CodeBadRequest},
	{name: "overflowing budget", ep: epExec, input: `{"budget":{"deadline_ms":9223372036854775808}}`, code: CodeBadRequest},
	{name: "negative zero budget", ep: epExec, input: `{"budget":{"deadline_ms":-0}}`, want: decoded{Budget: &budgetSpec{}}},
	{name: "body is an array", ep: epExec, input: `[]`, code: CodeBadRequest},
	{name: "body is a string", ep: epQuery, input: `"q(X) :- r(X)."`, code: CodeBadRequest},
	{name: "body is a number", ep: epBatch, input: `12`, code: CodeBadRequest},

	// ---- syntax: bad_request ----
	{name: "empty body", ep: epExec, input: ``, code: CodeBadRequest},
	{name: "white space only", ep: epExec, input: " \n", code: CodeBadRequest},
	{name: "truncated", ep: epExec, input: `{"handle":"h","args":[`, code: CodeBadRequest},
	{name: "trailing comma in object", ep: epExec, input: `{"handle":"h",}`, code: CodeBadRequest},
	{name: "trailing comma in array", ep: epExec, input: `{"args":["a",]}`, code: CodeBadRequest},
	{name: "leading comma", ep: epExec, input: `{,"handle":"h"}`, code: CodeBadRequest},
	{name: "missing colon", ep: epExec, input: `{"handle" "h"}`, code: CodeBadRequest},
	{name: "missing comma", ep: epExec, input: `{"handle":"h" "args":[]}`, code: CodeBadRequest},
	{name: "unquoted member name", ep: epExec, input: `{handle:"h"}`, code: CodeBadRequest},
	{name: "leading zero", ep: epExec, input: `{"budget":{"deadline_ms":01}}`, code: CodeBadRequest},
	{name: "bare minus", ep: epExec, input: `{"budget":{"deadline_ms":-}}`, code: CodeBadRequest},
	{name: "plus sign", ep: epExec, input: `{"budget":{"deadline_ms":+1}}`, code: CodeBadRequest},
	{name: "dot without digits", ep: epExec, input: `{"bogus":1.}`, code: CodeBadRequest},
	{name: "misspelt literal", ep: epExec, input: `{"handle":nul}`, code: CodeBadRequest},
	{name: "literal run together", ep: epExec, input: `{"handle":nullx}`, code: CodeBadRequest},
	{name: "byte order mark", ep: epExec, input: "\ufeff{}", code: CodeBadRequest},
	{name: "NUL byte", ep: epExec, input: "{}\x00", code: CodeBadRequest},
	{name: "syntax error inside a skipped value", ep: epExec, input: `{"bogus":{"a":[1,2,}]}`, code: CodeBadRequest},

	// ---- trailing bytes: bad_request (encoding/json stopped at the first value) ----
	{name: "trailing junk", ep: epExec, input: `{"handle":"h","args":[]} junk`, code: CodeBadRequest, differs: true},
	{name: "second object", ep: epQuery, input: `{"query":"q(X) :- r(X)."}{"query":"q(X) :- s(X)."}`, code: CodeBadRequest, differs: true},
	{name: "trailing junk after null", ep: epBatch, input: `null x`, code: CodeBadRequest, differs: true},
	{name: "trailing junk beats an unknown member", ep: epPrepare, input: `{"bogus":1} ]`, code: CodeBadRequest, differs: true},
	{name: "trailing white space is fine", ep: epPrepare, input: "{\"query\":\"q\"} \r\n\t", want: decoded{Query: "q"}},
}

func TestDecodeRequestCases(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.ep.String()+"/"+tc.name, func(t *testing.T) {
			got, err := decodeWire(tc.ep, []byte(tc.input))
			if code := wireCode(err); code != tc.code {
				t.Fatalf("%s: code %q (%v), want %q", tc.input, code, err, tc.code)
			}
			if tc.code == "" && !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s:\ngot  %+v\nwant %+v", tc.input, got, tc.want)
			}
			if tc.differs {
				_, stdErr, trailing := decodeStdlib(tc.ep, []byte(tc.input))
				if stdlibCode(stdErr) == tc.code && !trailing {
					t.Fatalf("%s: marked as a deliberate difference, but encoding/json agrees", tc.input)
				}
				return
			}
			checkAgainstStdlib(t, tc.ep, []byte(tc.input))
		})
	}
}

// TestDecodedRowsAreIndependent: the rows of a decoded Rows value share one
// backing array — a handler's the wire state's row arena, Rows.UnmarshalJSON's
// one of its own — and appending to one row must not write into the next,
// nor appending to one Rows value into the next value's rows.
func TestDecodedRowsAreIndependent(t *testing.T) {
	const body = `{"updates":{"r":[["a","b"],["c","d"],[],["e"]]},"deletes":{"s":[["f"]]}}`
	want := Rows{{"a", "b", "appended"}, {"c", "d", "appended"}, {"appended"}, {"e", "appended"}}
	appendEach := func(rows Rows) Rows {
		for i := range rows {
			rows[i] = append(rows[i], "appended")
		}
		return rows
	}

	st := acquireWire()
	defer st.release()
	var updates, deletes map[string][]storage.Tuple
	r := &http.Request{Body: io.NopCloser(bytes.NewReader([]byte(body))), ContentLength: int64(len(body))}
	if err := st.decode(r, members{updates: &updates, deletes: &deletes}); err != nil {
		t.Fatal(err)
	}
	if rows := appendEach(updates["r"]); !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows after appending to each = %q, want %q", rows, want)
	}
	_ = append(updates["r"], storage.Tuple{"x"})
	if got := deletes["s"]; !reflect.DeepEqual(got, []storage.Tuple{{"f"}}) {
		t.Fatalf("deletes after appending to the updates = %q, want [[f]]", got)
	}

	var rows Rows
	if err := json.Unmarshal([]byte(`[["a","b"],["c","d"],[],["e"]]`), &rows); err != nil {
		t.Fatal(err)
	}
	if rows = appendEach(rows); !reflect.DeepEqual(rows, want) {
		t.Fatalf("unmarshalled rows after appending to each = %q, want %q", rows, want)
	}
}

// TestEmptyRowsDecodeAsCopied: a handler's rows, which live in its wire
// state's arena, decode exactly as Rows.UnmarshalJSON's copies do — an
// empty row as [], not nil — also into an arena that holds nothing yet.
func TestEmptyRowsDecodeAsCopied(t *testing.T) {
	st := new(wireState)
	defer st.release()
	for i, rows := range []string{`[[],null]`, `[["a"],[],null]`} {
		var want Rows
		if err := json.Unmarshal([]byte(rows), &want); err != nil {
			t.Fatal(err)
		}
		body := `{"updates":{"r":` + rows + `}}`
		var updates map[string][]storage.Tuple
		r := &http.Request{Body: io.NopCloser(bytes.NewReader([]byte(body))), ContentLength: int64(len(body))}
		if err := st.decode(r, members{updates: &updates}); err != nil {
			t.Fatal(err)
		}
		if got := Rows(updates["r"]); !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %d: rows = %#v, want %#v", i, got, want)
		}
	}
}

// TestDecodeRowsShareChunks: a rows array's columns are sliced out of one
// string per storage.ChunkRows rows, so a stored row pins at most its chunk
// of the request. An array of up to a chunk decodes in a fixed number of
// allocations whatever its length, a longer one in one more per further
// chunk, and the rows of a chunk lie end to end in its string. Rows decoded
// from one body are unchanged after the same wireState decodes another.
func TestDecodeRowsShareChunks(t *testing.T) {
	array := func(tag string, k int) []byte {
		var b bytes.Buffer
		b.WriteByte('[')
		for i := 0; i < k; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `["%s%d","\u00e9%d",{"b64":"/w=="}]`, tag, i, i)
		}
		b.WriteByte(']')
		return b.Bytes()
	}
	wantRow := func(tag string, i int) storage.Tuple {
		return storage.Tuple{fmt.Sprint(tag, i), fmt.Sprint("\u00e9", i), "\xff"}
	}
	var s scanner
	decode := func(data []byte) Rows {
		s.reset(data)
		rows, err := s.rows()
		if err = s.finish(err); err != nil {
			t.Fatal(err)
		}
		return rows
	}

	if !raceEnabled {
		allocs := func(k int) float64 {
			data := array("k", k)
			return testing.AllocsPerRun(20, func() { decode(data) })
		}
		one := allocs(1)
		for _, k := range []int{2, 17, storage.ChunkRows, storage.ChunkRows + 1, 200} {
			want := one + float64((k-1)/storage.ChunkRows)
			if got := allocs(k); got != want {
				t.Errorf("%d rows: %v allocations, want %v (%v for one row, one more per further chunk of %d)", k, got, want, one, storage.ChunkRows)
			}
		}
	}

	rows := decode(array("k", 200))
	for i, row := range rows {
		if want := wantRow("k", i); !slices.Equal(row, want) {
			t.Fatalf("row %d = %q, want %q", i, row, want)
		}
		if i%storage.ChunkRows == 0 {
			continue
		}
		prev := rows[i-1]
		if end := unsafe.Add(unsafe.Pointer(unsafe.StringData(prev[2])), len(prev[2])); end != unsafe.Pointer(unsafe.StringData(row[0])) {
			t.Fatalf("row %d does not follow row %d in its chunk's string", i, i-1)
		}
	}

	st := acquireWire()
	defer st.release()
	decodeBody := func(body []byte) Rows {
		var updates map[string][]storage.Tuple
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
		if err := st.decode(r, members{updates: &updates}); err != nil {
			t.Fatal(err)
		}
		return updates["r"]
	}
	first := decodeBody(append(append([]byte(`{"updates":{"r":`), array("a", 70)...), "}}"...))
	decodeBody(append(append([]byte(`{"updates":{"r":`), array("b", 90)...), "}}"...))
	for i, row := range first {
		if want := wantRow("a", i); !slices.Equal(row, want) {
			t.Fatalf("after a second decode, row %d of the first = %q, want %q", i, row, want)
		}
	}
}

// TestDecodeDepthLimit: both decoders give up at the same nesting depth, and
// the scanner gets there without recursing per byte of input.
func TestDecodeDepthLimit(t *testing.T) {
	nest := func(n int) []byte {
		return []byte(`{"bogus":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
	}
	for _, n := range []int{maxDepth - 2, maxDepth - 1, maxDepth, maxDepth + 1} {
		checkAgainstStdlib(t, epExec, nest(n))
	}
	if _, err := decodeWire(epExec, nest(maxDepth-1)); wireCode(err) != CodeInvalidQuery {
		t.Fatalf("depth %d: %v, want the unknown-member error", maxDepth, err)
	}
	if _, err := decodeWire(epExec, nest(maxDepth)); wireCode(err) != CodeBadRequest {
		t.Fatalf("depth %d: %v, want a syntax error", maxDepth+1, err)
	}
	deep := bytes.Repeat([]byte("["), 1<<20)
	if _, err := decodeWire(epExec, deep); wireCode(err) != CodeBadRequest {
		t.Fatalf("1 MiB of '[': %v", err)
	}
}

// FuzzDecodeRequest: the scanner and encoding/json decode every body to the
// same request or the same error code, except where hasFoldedName or
// trailing bytes say they may differ.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add(uint8(tc.ep), []byte(tc.input))
	}
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		checkAgainstStdlib(t, endpoint(ep%uint8(numEndpoints)), body)
	})
}

// ---- Through the handler ----

func postBody(c *memClient, path, body string) (int, ErrorEnvelope) {
	c.post(path, []byte(body))
	var eb errorBody
	_ = json.Unmarshal(c.w.buf.Bytes(), &eb)
	return c.w.status, eb.Error
}

var postBodies = []struct{ path, body string }{
	{"/v1/prepare", `{"query":"q(Y) :- r(k3,Z), s(Z,Y)."}`},
	{"/v1/exec", `{"handle":"h","args":[]}`},
	{"/v1/query", `{"query":"q(Y) :- r(k3,Z), s(Z,Y)."}`},
	{"/v1/batch", `{"updates":{"r":[["k900","m1"]]}}`},
}

// TestTrailingBytesRejected: a body with anything but white space after the
// request object is refused on every POST endpoint. Decoder.Decode used to
// stop at the first value and accept it.
func TestTrailingBytesRejected(t *testing.T) {
	c, _, _ := pointLookupBed(t)
	for _, pb := range postBodies {
		for _, tail := range []string{" junk", pb.body, "]"} {
			status, env := postBody(c, pb.path, pb.body+tail)
			if status != http.StatusBadRequest || env.Code != CodeBadRequest {
				t.Errorf("%s %s: status %d code %q, want 400 %s", pb.path, pb.body+tail, status, env.Code, CodeBadRequest)
			}
		}
		if status, env := postBody(c, pb.path, pb.body+" \n"); status == http.StatusBadRequest && env.Code == CodeBadRequest {
			t.Errorf("%s: trailing white space refused: %s", pb.path, env.Message)
		}
	}
}

// TestUnknownAndFoldedMembers: unknown members are invalid_query on every
// POST endpoint, and so is a known member spelt in another case.
func TestUnknownAndFoldedMembers(t *testing.T) {
	c, _, _ := pointLookupBed(t)
	for _, pb := range postBodies {
		withUnknown := strings.Replace(pb.body, "{", `{"bogus":1,`, 1)
		status, env := postBody(c, pb.path, withUnknown)
		if status != http.StatusBadRequest || env.Code != CodeInvalidQuery || !strings.Contains(env.Message, `"bogus"`) {
			t.Errorf("%s %s: status %d code %q message %q", pb.path, withUnknown, status, env.Code, env.Message)
		}
		folded := strings.Replace(pb.body, "{", `{"Namespace":"default",`, 1)
		if status, env := postBody(c, pb.path, folded); status != http.StatusBadRequest || env.Code != CodeInvalidQuery {
			t.Errorf("%s %s: status %d code %q", pb.path, folded, status, env.Code)
		}
	}
}

// TestBodyTooLarge: one byte over the limit is 413 with a message naming
// the limit, whether or not Content-Length announces it; at the limit the
// body is read.
func TestBodyTooLarge(t *testing.T) {
	ns := testNamespace(t, DefaultNamespace, 10, Config{})
	reg := NewRegistry()
	if err := reg.Add(ns); err != nil {
		t.Fatal(err)
	}
	defer func(limit int64) { maxBodyBytes = limit }(maxBodyBytes)
	maxBodyBytes = 256
	c := newMemClient(New(reg).Handler())
	pad := func(n int) []byte { // a valid query request of exactly n bytes
		body := `{"query":"q(X,Y) :- r(X,Y)."}`
		return []byte(body + strings.Repeat(" ", n-len(body)))
	}
	for _, pb := range postBodies {
		for _, announced := range []bool{true, false} {
			body := pad(int(maxBodyBytes) + 1)
			req := &http.Request{Method: http.MethodPost, URL: c.url(pb.path), Header: http.Header{},
				Body: io.NopCloser(bytes.NewReader(body)), ContentLength: -1}
			if announced {
				req.ContentLength = int64(len(body))
			}
			c.serve(req)
			var eb errorBody
			_ = json.Unmarshal(c.w.buf.Bytes(), &eb)
			if c.w.status != http.StatusRequestEntityTooLarge || eb.Error.Code != CodeBadRequest || !strings.Contains(eb.Error.Message, "256 bytes") {
				t.Errorf("%s announced=%v: status %d, body %s", pb.path, announced, c.w.status, c.w.buf.Bytes())
			}
		}
	}
	c.post("/v1/query", pad(int(maxBodyBytes)))
	if c.w.status != http.StatusOK {
		t.Fatalf("body of exactly the limit: status %d: %s", c.w.status, c.w.buf.Bytes())
	}
}

// TestReadBufferFollowsBytesReceived: an announced Content-Length reserves
// at most a poolable buffer before any byte arrives — a client that sends
// headers and stalls must not pin a limit-sized buffer — and a body larger
// than that still decodes, the buffer growing as it is read.
func TestReadBufferFollowsBytesReceived(t *testing.T) {
	st := new(wireState)
	body := []byte(`{"query":"q(X) :- r(X,Y)."}`)
	r := &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: maxBodyBytes}
	if err := st.read(r); err != nil || !bytes.Equal(st.body, body) {
		t.Fatalf("read: %q, %v", st.body, err)
	}
	if cap(st.body) > maxPooledBytes {
		t.Fatalf("%d bytes reserved for %d received", cap(st.body), len(body))
	}

	rows := make(Rows, 4000)
	for i := range rows {
		rows[i] = storage.Tuple{fmt.Sprintf("key_%06d", i), "a value wide enough to matter"}
	}
	big, err := json.Marshal(batchRequest{Updates: map[string]Rows{"r": rows}})
	if err != nil || len(big) <= 2*maxPooledBytes {
		t.Fatalf("batch body: %d bytes, %v", len(big), err)
	}
	var updates map[string][]storage.Tuple
	r = &http.Request{Body: io.NopCloser(bytes.NewReader(big)), ContentLength: int64(len(big))}
	if err := st.decode(r, members{updates: &updates}); err != nil || !reflect.DeepEqual(Rows(updates["r"]), rows) {
		t.Fatalf("decode of a %d-byte body: %d rows, %v", len(big), len(updates["r"]), err)
	}
}
