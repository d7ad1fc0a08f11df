package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/storage"
)

// The row encoder must write what json.Encoder wrote before it, byte for
// byte: clients (and the benchmark) compare replies as bytes. The oracle
// below is the marshalling this package used to do — columns boxed as
// string or b64 object, handed to encoding/json — and shares no code with
// appendRows.

// answersResponse is the exec/query reply as a client reads it, and what
// wireState.writeAnswers must be the encoding of.
type answersResponse struct {
	Answers Rows `json:"answers"`
	Count   int  `json:"count"`
}

func stdlibRows(rows []storage.Tuple) [][]any {
	out := make([][]any, len(rows))
	for i, t := range rows {
		out[i] = make([]any, len(t))
		for j, v := range t {
			if utf8.ValidString(v) {
				out[i][j] = v
			} else {
				out[i][j] = struct {
					B64 string `json:"b64"`
				}{base64.StdEncoding.EncodeToString([]byte(v))}
			}
		}
	}
	return out
}

// stdlibAnswers is the exec/query reply as json.Encoder renders it.
func stdlibAnswers(t testing.TB, rows []storage.Tuple) []byte {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(struct {
		Answers [][]any `json:"answers"`
		Count   int     `json:"count"`
	}{stdlibRows(rows), len(rows)})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wireAnswers(rows []storage.Tuple) (body []byte, contentType string) {
	st := acquireWire()
	defer st.release()
	w := memRecorder{hdr: make(http.Header)}
	st.writeAnswers(&w, rows)
	return w.buf.Bytes(), w.hdr.Get("Content-Type")
}

func checkAnswersBytes(t *testing.T, rows []storage.Tuple) {
	t.Helper()
	got, contentType := wireAnswers(rows)
	if want := stdlibAnswers(t, rows); !bytes.Equal(got, want) {
		t.Fatalf("rows %q:\nwire          %s\nencoding/json %s", rows, got, want)
	}
	if contentType != "application/json" {
		t.Fatalf("Content-Type = %q", contentType)
	}
	// The Marshaler wrappers, which the cold replies go through, agree too.
	viaMarshal, err := json.Marshal(answersResponse{Answers: rows, Count: len(rows)})
	if err != nil || !bytes.Equal(append(viaMarshal, '\n'), got) {
		t.Fatalf("rows %q: json.Marshal(answersResponse) = %s (%v), wire = %s", rows, viaMarshal, err, got)
	}
}

func TestAnswersBytesMatchEncodingJSON(t *testing.T) {
	var everyByte strings.Builder
	for c := 0; c < utf8.RuneSelf; c++ {
		everyByte.WriteByte(byte(c))
	}
	for _, rows := range [][]storage.Tuple{
		nil,
		{},
		{{}},
		{{""}},
		{{"x4"}},
		{{"y1"}, {"y2"}},
		{{"a", "b", "c"}, {}, {"d"}},
		{{everyByte.String()}},
		{{"<script>&amp;</script>"}},
		{{"line\u2028sep", "para\u2029sep", "\u2027\u202a", "\u2028"}},
		{{"⟨v_f0:a\x1fb⟩", "x"}},                      // Skolem value
		{{string([]byte{0xff, 0xfe, 0x01}), "k"}},     // not UTF-8: b64
		{{"mixed\xffmiddle"}, {"\xe2\x80"}, {"\xe2"}}, // truncated sequences
		{{`quotes " and \ backslashes`, "tab\there", "\b\f\n\r"}},
		{{"unicode ünïcødé 日本語 😀 \U0010ffff"}},
		{{"\ufffd"}}, // a real U+FFFD is valid UTF-8
	} {
		checkAnswersBytes(t, rows)
	}
}

// fuzzRows cuts fuzz input into rows: a byte of arity, then per column a
// byte of length and that many bytes.
func fuzzRows(data []byte) []storage.Tuple {
	var rows []storage.Tuple
	for len(data) > 0 {
		arity := int(data[0] % 5)
		data = data[1:]
		t := make(storage.Tuple, 0, arity)
		for ; arity > 0 && len(data) > 0; arity-- {
			n := min(int(data[0]%24), len(data)-1)
			t = append(t, string(data[1:1+n]))
			data = data[1+n:]
		}
		rows = append(rows, t)
	}
	return rows
}

// FuzzAppendRows: byte equality with json.Encoder over arbitrary
// byte-string columns.
func FuzzAppendRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x02x4"))
	f.Add([]byte("\x02\x0b\xe2\x9f\xa8v_f0:a\x1fb\x01x"))
	f.Add([]byte("\x01\x03\xff\xfe\x01\x01\x05<>&\"\\"))
	f.Add([]byte("\x03\x03\xe2\x80\xa8\x03\xe2\x80\xa9\x02\xe2\x80"))
	f.Add([]byte("\x00\x00\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAnswersBytes(t, fuzzRows(data))
	})
}

func TestBatchAckBytesMatchEncodingJSON(t *testing.T) {
	for _, ack := range []batchResponse{
		{Applied: true, Predicates: 1, Tuples: 2},
		{Applied: true, Predicates: 3, Tuples: 0, Deleted: 7},
		{Applied: true, Predicates: 12, Tuples: 123456, Deleted: 1},
	} {
		st := acquireWire()
		w := memRecorder{hdr: make(http.Header)}
		st.writeBatchAck(&w, ack)
		st.release()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ack); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.buf.Bytes(), want.Bytes()) {
			t.Fatalf("ack %+v: wire %s, encoding/json %s", ack, w.buf.Bytes(), want.Bytes())
		}
	}
}

// TestLargeBuffersLeaveThePool: a wireState that grew past maxPooledBytes
// gives the memory up on release.
func TestLargeBuffersLeaveThePool(t *testing.T) {
	st := acquireWire()
	big := strings.Repeat("x", maxPooledBytes+1)
	st.body = append(st.body[:0], big...)
	st.writeAnswers(&memRecorder{hdr: make(http.Header)}, []storage.Tuple{{big}})
	st.scan.cols = make([]string, maxPooledBytes)
	st.scan.tuples = make([]storage.Tuple, maxPooledBytes)
	st.scan.tmp = make([]byte, maxPooledBytes+1)
	st.release()
	if st.body != nil || st.out != nil || st.scan.cols != nil || st.scan.tuples != nil || st.scan.tmp != nil {
		t.Fatalf("released state keeps large buffers: body %d out %d cols %d tuples %d tmp %d",
			cap(st.body), cap(st.out), cap(st.scan.cols), cap(st.scan.tuples), cap(st.scan.tmp))
	}
}
