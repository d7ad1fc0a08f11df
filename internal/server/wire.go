package server

// The wire layer: one hand-written JSON scanner that decodes the four POST
// request bodies, and one append-based encoder for tuples and the answers
// reply. encoding/json stays out of the request path; it still renders the
// cold replies (prepare, stats, health, errors), which embed Row values
// through the MarshalJSON wrappers below and so share this encoder.
//
// Tuple values are arbitrary byte strings: Skolem values embed \x1f
// separators and angle brackets, user data can carry empty strings, control
// characters, or bytes that are not valid UTF-8 at all. encoding/json
// silently replaces invalid UTF-8 with U+FFFD when marshalling a Go string,
// which would corrupt such values in flight, so the wire format encodes each
// column as either
//
//   - a plain JSON string, when the value is valid UTF-8 (JSON string
//     escaping already round-trips control characters exactly), or
//   - {"b64": "<base64>"}, when it is not.
//
// A column is therefore a JSON string or a JSON object — never ambiguous —
// and every byte string round-trips unchanged. Rows are arrays of columns,
// answer sets arrays of rows.
//
// Ownership: a wireState (request body, reply buffer, decode scratch) is
// pooled and must not be referenced once the handler returns. A decoded
// exec request's handle and argument slice alias it; every decoded string
// and every Row/Rows handed to the engine is freshly allocated: a Row's
// columns share one string, a Rows value's columns one string per
// storage.ChunkRows rows, and its rows are windows onto one backing array.
// The answers of an exec or a query come the other way in the engine's
// pooled row set (datalog.RowSet), which the handler encodes in place and
// releases once the reply has been written.

import (
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/datalog"
	"repro/internal/storage"
)

// Row is one tuple on the wire.
type Row storage.Tuple

// MarshalJSON encodes the row as an array of columns.
func (r Row) MarshalJSON() ([]byte, error) { return appendRow(nil, storage.Tuple(r)), nil }

// UnmarshalJSON decodes an array of columns.
func (r *Row) UnmarshalJSON(data []byte) error {
	s := scanner{data: data}
	cols, err := s.columns()
	if err = s.finish(err); err != nil {
		return err
	}
	*r = append(make(Row, 0, len(cols)), cols...)
	return nil
}

// Rows is an answer set (or insert batch) on the wire.
type Rows []storage.Tuple

// MarshalJSON encodes every tuple as a Row. A nil answer set encodes as
// [], not null — clients iterate it either way.
func (rs Rows) MarshalJSON() ([]byte, error) { return appendRows(nil, rs), nil }

// UnmarshalJSON decodes an array of Rows.
func (rs *Rows) UnmarshalJSON(data []byte) error {
	s := scanner{data: data}
	rows, err := s.rows()
	if err = s.finish(err); err != nil {
		return err
	}
	*rs = rows
	return nil
}

// ---- Encoding ----

// appendRows appends the JSON encoding of an answer set, byte for byte what
// json.Encoder (HTML escaping on) wrote for it.
func appendRows(dst []byte, rows []storage.Tuple) []byte {
	dst = append(dst, '[')
	for i, t := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendRow(dst, t)
	}
	return append(dst, ']')
}

// appendRow appends one tuple as an array of columns.
func appendRow(dst []byte, t storage.Tuple) []byte {
	dst = append(dst, '[')
	for i, v := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		if utf8.ValidString(v) {
			dst = appendString(dst, v)
		} else {
			dst = append(dst, `{"b64":"`...)
			dst = base64.StdEncoding.AppendEncode(dst, []byte(v))
			dst = append(dst, `"}`...)
		}
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// appendString appends valid UTF-8 as a JSON string with encoding/json's
// escaping: short escapes for \b \f \n \r \t, \u00XX for the other control
// characters and for < > &, and U+2028 and U+2029 spelled out as \u2028 and
// \u2029.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		var esc byte
		switch {
		case c == '"' || c == '\\':
			esc = c
		case c == '\b':
			esc = 'b'
		case c == '\f':
			esc = 'f'
		case c == '\n':
			esc = 'n'
		case c == '\r':
			esc = 'r'
		case c == '\t':
			esc = 't'
		case c < ' ' || c == '<' || c == '>' || c == '&':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			start = i + 1
			continue
		case c == 0xe2 && i+2 < len(s) && s[i+1] == 0x80 && s[i+2]&^1 == 0xa8: // U+2028, U+2029
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[s[i+2]&0xf])
			i += 2
			start = i + 1
			continue
		default:
			continue
		}
		dst = append(append(dst, s[start:i]...), '\\', esc)
		start = i + 1
	}
	return append(append(dst, s[start:]...), '"')
}

// jsonContentType is the Content-Type value every reply shares. Nothing
// appends to a header value in place, so one slice serves all responses.
var jsonContentType = []string{"application/json"}

// writeBody sends a complete JSON body with one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client went away
}

// writeAnswers sends the exec/query reply: {"answers": rows, "count": n},
// encoding the rows in place from the engine's row set, byte for byte what
// appendRows writes for them. The reply is in st.out, and has been copied
// to w, before it returns: the caller releases the set after it.
func (st *wireState) writeAnswers(w http.ResponseWriter, answers *datalog.RowSet) {
	b := append(st.out[:0], `{"answers":[`...)
	for i := 0; i < answers.Len(); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRow(b, answers.Row(i))
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(answers.Len()), 10)
	st.out = append(b, "}\n"...)
	writeBody(w, http.StatusOK, st.out)
}

// writeBatchAck sends the batch acknowledgement (the encoding of
// batchResponse).
func (st *wireState) writeBatchAck(w http.ResponseWriter, ack batchResponse) {
	b := append(st.out[:0], `{"applied":`...)
	b = strconv.AppendBool(b, ack.Applied)
	b = append(b, `,"predicates":`...)
	b = strconv.AppendInt(b, int64(ack.Predicates), 10)
	b = append(b, `,"tuples":`...)
	b = strconv.AppendInt(b, int64(ack.Tuples), 10)
	if ack.Deleted != 0 {
		b = append(b, `,"deleted":`...)
		b = strconv.AppendInt(b, int64(ack.Deleted), 10)
	}
	st.out = append(b, "}\n"...)
	writeBody(w, http.StatusOK, st.out)
}

// ---- Pooled per-request state ----

// maxPooledBytes is the scratch size above which a wireState drops a buffer
// on release instead of keeping it alive in the pool: one large batch must
// not pin its memory for the life of the process.
const maxPooledBytes = 64 << 10

// wireState is everything one request needs from this layer.
type wireState struct {
	scan   scanner
	body   []byte     // request body as read
	out    []byte     // reply under construction
	budget budgetSpec // storage behind a decoded request's Budget pointer
}

var wirePool = sync.Pool{New: func() any { return new(wireState) }}

func acquireWire() *wireState { return wirePool.Get().(*wireState) }

// release returns the state to the pool holding no reference to request
// data.
func (st *wireState) release() {
	s := &st.scan
	s.data, s.soft = nil, nil
	if cap(st.body) > maxPooledBytes {
		st.body = nil
	}
	if cap(st.out) > maxPooledBytes {
		st.out = nil
	}
	if cap(s.tmp) > maxPooledBytes {
		s.tmp = nil
	}
	if cap(s.row) > maxPooledBytes {
		s.row = nil
	}
	const maxPooledSlots = maxPooledBytes / 16 // scratch entries are 8 and 16 bytes
	clear(s.cols[:cap(s.cols)])
	if cap(s.cols) > maxPooledSlots {
		s.cols = nil
	}
	if cap(s.ends) > maxPooledSlots {
		s.ends = nil
	}
	if cap(s.widths) > maxPooledSlots {
		s.widths = nil
	}
	wirePool.Put(st)
}

// read loads the request body into st.body. A body longer than
// maxBodyBytes fails with *http.MaxBytesError.
func (st *wireState) read(r *http.Request) error {
	limit := maxBodyBytes
	if r.ContentLength > limit {
		return &http.MaxBytesError{Limit: limit}
	}
	buf := st.body[:0]
	// One spare byte: the read that reports EOF needs room. An announced
	// length buys at most a poolable buffer up front; past that the buffer
	// grows as bytes arrive, so a client that sends headers and stalls holds
	// no memory for a body it never sends.
	if want := min(r.ContentLength+1, maxPooledBytes); want > int64(cap(buf)) {
		buf = make([]byte, 0, want)
	}
	for r.Body != nil {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("reading body: %w", err)
		}
	}
	st.body = buf
	st.scan.reset(buf)
	return nil
}

// ---- Decoding ----

// errUnknownField reports a request member this server does not know. Such
// a body is well-formed JSON expressing an operation the server cannot
// honor — "deletes" sent to a build that predates mixed batches, say — so it
// maps to invalid_query, not bad_request: silently dropping the field would
// answer a different question than the client asked.
type errUnknownField struct{ name string }

func (e errUnknownField) Error() string { return fmt.Sprintf("unknown field %q", e.name) }

// maxDepth is encoding/json's nesting limit, kept so both decoders accept
// the same documents.
const maxDepth = 10000

// scanner decodes request bodies. The grammar is JSON (RFC 8259); the
// contract follows encoding/json with DisallowUnknownFields where clients
// could tell the difference: members may come in any order, the last
// duplicate wins, null leaves a member at its zero value, a known member of
// the wrong type or an unknown member fails the request — after the whole
// document has been checked, so a syntax error anywhere wins — and strings
// have invalid UTF-8 and unpaired surrogates replaced by U+FFFD. Two
// differences are deliberate: member names match exactly (encoding/json
// also accepted any case folding of them), and nothing but white space may
// follow the document.
type scanner struct {
	data  []byte
	pos   int
	depth int
	// soft is the first type mismatch or unknown member. Decoding carries on
	// past it; finish reports it if nothing worse turned up.
	soft error

	tmp    []byte   // unescape scratch
	row    []byte   // the values of the row, or chunk of rows, being decoded, end to end
	ends   []int    // where each of those values ends in row
	cols   []string // columns decoded: of one row, or of every row of a Rows
	widths []int    // columns per row of the Rows being decoded
}

func (s *scanner) reset(data []byte) {
	s.data, s.pos, s.depth, s.soft = data, 0, 0, nil
}

func (s *scanner) syntax(what string) error {
	if s.pos >= len(s.data) {
		return fmt.Errorf("invalid JSON: unexpected end of input, want %s", what)
	}
	return fmt.Errorf("invalid JSON at offset %d: %q, want %s", s.pos, s.data[s.pos], what)
}

// mismatch records a known member holding the wrong type of value.
func (s *scanner) mismatch(name, want string) {
	if s.soft == nil {
		s.soft = fmt.Errorf("%s must be %s", name, want)
	}
}

// next skips white space and returns the byte at the cursor, 0 at the end.
func (s *scanner) next() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// finish ends a document: err if decoding failed, else an error for
// trailing bytes, else the first soft error.
func (s *scanner) finish(err error) error {
	if err != nil {
		return err
	}
	if s.next(); s.pos < len(s.data) {
		return fmt.Errorf("invalid JSON at offset %d: data after the top-level value", s.pos)
	}
	return s.soft
}

func (s *scanner) enter() error {
	if s.depth++; s.depth > maxDepth {
		return errors.New("invalid JSON: exceeded max depth")
	}
	s.pos++ // the opening bracket
	return nil
}

// nextKey advances to the next member of the object the cursor is in and
// returns its name, leaving the cursor on the value. ok is false once the
// object is closed.
func (s *scanner) nextKey(first *bool) (key []byte, ok bool, err error) {
	c := s.next()
	if c == '}' {
		s.pos++
		s.depth--
		return nil, false, nil
	}
	if !*first {
		if c != ',' {
			return nil, false, s.syntax(`"," or "}"`)
		}
		s.pos++
		c = s.next()
	}
	*first = false
	if c != '"' {
		return nil, false, s.syntax("a member name")
	}
	raw, plain, err := s.scanString()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		raw = unquote(nil, raw)
	}
	if s.next() != ':' {
		return nil, false, s.syntax(`":"`)
	}
	s.pos++
	return raw, true, nil
}

// nextElem advances to the next element of the array the cursor is in. ok
// is false once the array is closed.
func (s *scanner) nextElem(first *bool) (ok bool, err error) {
	c := s.next()
	if c == ']' {
		s.pos++
		s.depth--
		return false, nil
	}
	if !*first {
		if c != ',' {
			return false, s.syntax(`"," or "]"`)
		}
		s.pos++
	}
	*first = false
	return true, nil
}

// scanString consumes the string at the cursor and returns the bytes
// between its quotes, checked but not unescaped. plain reports that they
// are the string's value as they stand: no escapes, ASCII only.
func (s *scanner) scanString() (raw []byte, plain bool, err error) {
	start := s.pos + 1
	plain = true
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i++; i >= len(s.data) {
				break
			}
			switch s.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(s.data) || hex4(s.data[i+1:]) < 0 {
					s.pos = i
					return nil, false, s.syntax("four hex digits")
				}
				i += 4
			default:
				s.pos = i
				return nil, false, s.syntax("an escape character")
			}
		case c < ' ':
			s.pos = i
			return nil, false, s.syntax("no control character in a string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	s.pos = len(s.data)
	return nil, false, s.syntax("a closing quote")
}

// hex4 decodes four hex digits, -1 if b does not start with four.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote appends the value of a checked string body to dst: escapes
// decoded, surrogate pairs joined, invalid UTF-8 and lone surrogates
// replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch c = raw[i]; c {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+2 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
						r2 = hex4(raw[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				dst = utf8.AppendRune(dst, r)
			default: // " \ /
				dst = append(dst, c)
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// str returns a scanned string's value.
func (s *scanner) str(raw []byte, plain bool) string {
	if plain {
		return string(raw)
	}
	s.tmp = unquote(s.tmp[:0], raw)
	return string(s.tmp)
}

// literal consumes the given word.
func (s *scanner) literal(word string) error {
	if len(s.data)-s.pos < len(word) || string(s.data[s.pos:s.pos+len(word)]) != word {
		return s.syntax(word)
	}
	s.pos += len(word)
	return nil
}

// scanNumber consumes the number at the cursor and returns its text.
func (s *scanner) scanNumber() ([]byte, error) {
	start := s.pos
	digits := func() bool {
		from := s.pos
		for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
			s.pos++
		}
		return s.pos > from
	}
	if s.data[s.pos] == '-' {
		s.pos++
	}
	if s.pos < len(s.data) && s.data[s.pos] == '0' {
		s.pos++
	} else if !digits() {
		return nil, s.syntax("a digit")
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		if s.pos++; !digits() {
			return nil, s.syntax("a digit")
		}
	}
	if s.pos < len(s.data) && s.data[s.pos]|0x20 == 'e' {
		if s.pos++; s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if !digits() {
			return nil, s.syntax("a digit")
		}
	}
	return s.data[start:s.pos], nil
}

// skipValue consumes one value of any type, checking its syntax.
func (s *scanner) skipValue() error {
	switch c := s.next(); {
	case c == '"':
		_, _, err := s.scanString()
		return err
	case c == '{':
		if err := s.enter(); err != nil {
			return err
		}
		for first := true; ; {
			_, ok, err := s.nextKey(&first)
			if !ok || err != nil {
				return err
			}
			if err := s.skipValue(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := s.enter(); err != nil {
			return err
		}
		for first := true; ; {
			ok, err := s.nextElem(&first)
			if !ok || err != nil {
				return err
			}
			if err := s.skipValue(); err != nil {
				return err
			}
		}
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.scanNumber()
		return err
	}
	return s.syntax("a value")
}

// ---- Rows ----
//
// Everything below a Row or Rows member is decoded strictly: a value of the
// wrong shape ends decoding at once (encoding/json hands these members to
// UnmarshalJSON, whose errors are not deferred like a struct member's).

// columns decodes a row into the column scratch and returns it; the slice
// is valid until the next call. The columns share one freshly allocated
// string, so a row costs one allocation however many columns it has. null
// is the empty row.
func (s *scanner) columns() ([]string, error) {
	row, ends, err := s.scanRow(s.row[:0], s.ends[:0])
	s.row, s.ends = row, ends
	if err != nil {
		return s.cols[:0], err
	}
	s.cols = cutColumns(s.cols[:0], string(row), ends)
	return s.cols, nil
}

// scanRow decodes a row, appending its values' bytes end to end to row and
// where each value ends to ends. null is the empty row.
func (s *scanner) scanRow(row []byte, ends []int) ([]byte, []int, error) {
	switch s.next() {
	case 'n':
		return row, ends, s.literal("null")
	case '[':
	default:
		return row, ends, fmt.Errorf("offset %d: a row must be an array of columns", s.pos)
	}
	if err := s.enter(); err != nil {
		return row, ends, err
	}
	for col, first := 0, true; ; col++ {
		ok, err := s.nextElem(&first)
		if err != nil {
			return row, ends, err
		}
		if !ok {
			return row, ends, nil
		}
		switch s.next() {
		case '"':
			raw, plain, err := s.scanString()
			if err != nil {
				return row, ends, err
			}
			if plain {
				row = append(row, raw...)
			} else {
				row = unquote(row, raw)
			}
		case '{':
			if row, err = s.appendB64(row); err != nil {
				return row, ends, fmt.Errorf("column %d: %w", col, err)
			}
		default:
			return row, ends, fmt.Errorf("column %d is neither a string nor a b64 object", col)
		}
		ends = append(ends, len(row))
	}
}

// cutColumns appends to cols the values str holds end to end, the first
// starting at 0 and each ending at the next of ends.
func cutColumns(cols []string, str string, ends []int) []string {
	start := 0
	for _, end := range ends {
		cols = append(cols, str[start:end])
		start = end
	}
	return cols
}

// appendB64 decodes {"b64": "<base64>"} and appends the value to dst. As
// before this scanner, other members are ignored and an absent or null b64
// is the empty string.
func (s *scanner) appendB64(dst []byte) ([]byte, error) {
	if err := s.enter(); err != nil {
		return dst, err
	}
	var enc []byte
	for first := true; ; {
		key, ok, err := s.nextKey(&first)
		if err != nil {
			return dst, err
		}
		if !ok {
			break
		}
		if len(key) != 3 || key[0]|0x20 != 'b' || key[1] != '6' || key[2] != '4' {
			if err := s.skipValue(); err != nil {
				return dst, err
			}
			continue
		}
		switch s.next() {
		case '"':
			raw, plain, err := s.scanString()
			if err != nil {
				return dst, err
			}
			if enc = raw; !plain {
				s.tmp = unquote(s.tmp[:0], raw)
				enc = s.tmp
			}
		case 'n':
			if err := s.literal("null"); err != nil {
				return dst, err
			}
		default:
			return dst, errors.New("b64 is not a string")
		}
	}
	out, err := base64.StdEncoding.AppendDecode(dst, enc)
	if err != nil {
		return dst, fmt.Errorf("bad base64: %w", err)
	}
	return out, nil
}

// rows decodes an array of rows. null is the empty set. The rows' bytes are
// scanned into the row scratch, and each run of up to storage.ChunkRows rows
// becomes one string that their columns are sliced out of, so a stored row
// pins at most its chunk of the request. The columns are gathered in the
// column scratch and copied into one backing array of exactly their number,
// onto which each row is a capacity-limited window, so appending to one row
// never writes into the next: a Rows value of up to storage.ChunkRows rows
// costs three allocations, whatever its size.
func (s *scanner) rows() (Rows, error) {
	switch s.next() {
	case 'n':
		return Rows{}, s.literal("null")
	case '[':
	default:
		return nil, fmt.Errorf("offset %d: rows must be an array of rows", s.pos)
	}
	if err := s.enter(); err != nil {
		return nil, err
	}
	vals, widths := s.cols[:0], s.widths[:0]
	row, ends := s.row[:0], s.ends[:0]
	for first := true; ; {
		ok, err := s.nextElem(&first)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n := len(ends)
		if row, ends, err = s.scanRow(row, ends); err != nil {
			return nil, err
		}
		widths = append(widths, len(ends)-n)
		if len(widths)%storage.ChunkRows == 0 {
			vals = cutColumns(vals, string(row), ends)
			row, ends = row[:0], ends[:0]
		}
	}
	vals = cutColumns(vals, string(row), ends)
	s.cols, s.widths, s.row, s.ends = vals, widths, row, ends
	backing := make([]string, len(vals))
	copy(backing, vals)
	out := make(Rows, len(widths))
	for i, w := range widths {
		out[i] = backing[:w:w]
		backing = backing[w:]
	}
	return out, nil
}

// ---- Requests ----

// open starts a request document. more is false when there are no members
// to read: the body is null (every member stays zero, as encoding/json has
// it) or not an object (a type mismatch).
func (s *scanner) open() (more bool, err error) {
	switch s.next() {
	case '{':
		return true, s.enter()
	case 'n':
		return false, s.literal("null")
	case 0:
		return false, s.syntax("a request object")
	}
	s.mismatch("request body", "an object")
	return false, s.skipValue()
}

// unknown records a member this server does not know and skips its value.
func (s *scanner) unknown(key []byte) error {
	if s.soft == nil {
		s.soft = errUnknownField{string(key)}
	}
	return s.skipValue()
}

// stringValue consumes a string-typed member's value. ok is false when
// there is no string to store: null, or a type mismatch.
func (s *scanner) stringValue(name string) (raw []byte, plain, ok bool, err error) {
	switch s.next() {
	case '"':
		raw, plain, err = s.scanString()
		return raw, plain, err == nil, err
	case 'n':
		return nil, false, false, s.literal("null")
	}
	s.mismatch(name, "a string")
	return nil, false, false, s.skipValue()
}

// stringMember decodes a string-typed member.
func (s *scanner) stringMember(name string, dst *string) error {
	raw, plain, ok, err := s.stringValue(name)
	if ok {
		*dst = s.str(raw, plain)
	}
	return err
}

// bytesMember decodes a string-typed member without copying it out of the
// body when it has no escapes.
func (s *scanner) bytesMember(name string, dst *[]byte) error {
	raw, plain, ok, err := s.stringValue(name)
	if ok && !plain {
		raw = unquote(nil, raw)
	}
	if ok {
		*dst = raw
	}
	return err
}

// intMember decodes an integer-typed member.
func (s *scanner) intMember(name string, dst *int) error {
	switch c := s.next(); {
	case c == 'n':
		return s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		num, err := s.scanNumber()
		if err != nil {
			return err
		}
		if n, err := strconv.ParseInt(string(num), 10, strconv.IntSize); err != nil {
			s.mismatch(name, "an integer")
		} else {
			*dst = int(n)
		}
		return nil
	}
	s.mismatch(name, "an integer")
	return s.skipValue()
}

// budgetMember decodes the budget sub-object into *store and points *dst at
// it. As with encoding/json, a repeated budget adds to the first and null
// clears it.
func (s *scanner) budgetMember(dst **budgetSpec, store *budgetSpec) error {
	switch s.next() {
	case '{':
	case 'n':
		*dst = nil
		return s.literal("null")
	default:
		s.mismatch("budget", "an object")
		return s.skipValue()
	}
	if err := s.enter(); err != nil {
		return err
	}
	if *dst == nil {
		*store = budgetSpec{}
		*dst = store
	}
	for first := true; ; {
		key, ok, err := s.nextKey(&first)
		if !ok || err != nil {
			return err
		}
		switch string(key) {
		case "deadline_ms":
			err = s.intMember("budget.deadline_ms", &store.DeadlineMS)
		case "max_result_rows":
			err = s.intMember("budget.max_result_rows", &store.MaxResultRows)
		case "max_derived_tuples":
			err = s.intMember("budget.max_derived_tuples", &store.MaxDerivedTuples)
		case "max_fixpoint_rounds":
			err = s.intMember("budget.max_fixpoint_rounds", &store.MaxFixpointRounds)
		default:
			err = s.unknown(key)
		}
		if err != nil {
			return err
		}
	}
}

// rowsMapMember decodes a predicate -> rows object. As with encoding/json,
// a repeated member adds to the first and null clears it.
func (s *scanner) rowsMapMember(name string, dst *map[string]Rows) error {
	switch s.next() {
	case '{':
	case 'n':
		*dst = nil
		return s.literal("null")
	default:
		s.mismatch(name, "an object of predicate -> rows")
		return s.skipValue()
	}
	if err := s.enter(); err != nil {
		return err
	}
	if *dst == nil {
		*dst = make(map[string]Rows)
	}
	for first := true; ; {
		key, ok, err := s.nextKey(&first)
		if !ok || err != nil {
			return err
		}
		pred := string(key)
		if (*dst)[pred], err = s.rows(); err != nil {
			return fmt.Errorf("%s.%s: %w", name, pred, err)
		}
	}
}

// members says where each member of a request body goes; a nil pointer
// marks a member the endpoint does not take.
type members struct {
	namespace, query *string
	handle           *[]byte // aliases the wireState
	args             *Row    // aliases the wireState
	budget           **budgetSpec
	updates, deletes *map[string]Rows
}

// decode reads the request body and decodes it.
func (st *wireState) decode(r *http.Request, m members) error {
	if err := st.read(r); err != nil {
		return err
	}
	s := &st.scan
	more, err := s.open()
	for first := true; more && err == nil; {
		var key []byte
		if key, more, err = s.nextKey(&first); !more || err != nil {
			break
		}
		switch {
		case string(key) == "namespace" && m.namespace != nil:
			err = s.stringMember("namespace", m.namespace)
		case string(key) == "query" && m.query != nil:
			err = s.stringMember("query", m.query)
		case string(key) == "handle" && m.handle != nil:
			err = s.bytesMember("handle", m.handle)
		case string(key) == "args" && m.args != nil:
			var cols []string
			if cols, err = s.columns(); err != nil {
				err = fmt.Errorf("args: %w", err)
			}
			*m.args = cols
		case string(key) == "budget" && m.budget != nil:
			err = s.budgetMember(m.budget, &st.budget)
		case string(key) == "updates" && m.updates != nil:
			err = s.rowsMapMember("updates", m.updates)
		case string(key) == "deletes" && m.deletes != nil:
			err = s.rowsMapMember("deletes", m.deletes)
		default:
			err = s.unknown(key)
		}
	}
	return s.finish(err)
}

// writeRequestError answers a request whose body could not be read or
// decoded.
func writeRequestError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	var unknown errUnknownField
	switch {
	case errors.As(err, &tooLarge):
		writeErrorCode(w, http.StatusRequestEntityTooLarge, CodeBadRequest,
			fmt.Sprintf("request body exceeds the limit of %d bytes", tooLarge.Limit))
	case errors.As(err, &unknown):
		writeErrorCode(w, http.StatusBadRequest, CodeInvalidQuery, fmt.Sprintf("unsupported request field: %v", err))
	default:
		writeErrorCode(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
}
