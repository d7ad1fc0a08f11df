package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"regexp"
	"slices"

	"repro/internal/storage"
)

// Binary formats. Everything on disk is little-endian, length-prefixed and
// checksummed with CRC32-C (Castagnoli — the polynomial with hardware
// support on amd64/arm64):
//
//	segment file (one relation, columnar):
//	  magic "AQVSEG01" | u32 arity | u32 rows
//	  per column: u64 colBytes | rows × (u32 len | bytes)
//	  u32 CRC32C over everything before it
//
//	WAL file:
//	  magic "AQVWAL01"
//	  per record: u32 payloadLen | u32 CRC32C(payload) | payload
//	  payload: u64 lsn | group(deletes) | group(inserts)
//	  group: u32 nPreds | per pred: str name | u32 arity | u32 nTuples |
//	         nTuples × arity × str   (str = u32 len | bytes)
//
// This is manifestFormat 1, pinned byte for byte by TestEncodedBytesPinned
// so data directories written by earlier builds keep opening. Writers
// stream: a segment goes to its file through one fixed buffer while a
// running CRC32C is kept of the bytes flushed, so no byte slice the size
// of a relation is ever built; a WAL record is encoded once, into the
// store's kept frame buffer or, when that is too small, a frame sized
// exactly from its batch.
//
// Decoders are hardened against arbitrary bytes (they feed the fuzz
// targets): every length is bounds-checked against the remaining input
// before any allocation sized from it, so malformed input errors out
// instead of panicking or ballooning memory.

const (
	segMagic = "AQVSEG01"
	walMagic = "AQVWAL01"

	// manifestFormat versions the snapshot layout as a whole; a reader
	// refuses manifests from the future.
	manifestFormat = 1

	// maxRecordBytes bounds a single WAL record frame; a larger length
	// prefix is treated as corruption.
	maxRecordBytes = 1 << 30

	maxArity = 1 << 16

	// segBufSize is the buffer every segment of a checkpoint is streamed
	// through.
	segBufSize = 64 << 10

	// frameHeader is a WAL frame's u32 payloadLen and u32 CRC32C.
	frameHeader = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one durable update batch — exactly the ApplyUpdate unit, in
// apply order (deletes before inserts).
type Record struct {
	LSN     uint64
	Deletes map[string][]storage.Tuple
	Inserts map[string][]storage.Tuple
}

// buf is a bounds-checked cursor over an input byte slice.
type buf struct {
	data []byte
	off  int
}

func (b *buf) remaining() int { return len(b.data) - b.off }

func (b *buf) u32() (uint32, error) {
	if b.remaining() < 4 {
		return 0, fmt.Errorf("durable: truncated u32 at offset %d", b.off)
	}
	v := binary.LittleEndian.Uint32(b.data[b.off:])
	b.off += 4
	return v, nil
}

func (b *buf) u64() (uint64, error) {
	if b.remaining() < 8 {
		return 0, fmt.Errorf("durable: truncated u64 at offset %d", b.off)
	}
	v := binary.LittleEndian.Uint64(b.data[b.off:])
	b.off += 8
	return v, nil
}

func (b *buf) str() (string, error) {
	n, err := b.u32()
	if err != nil {
		return "", err
	}
	if int64(n) > int64(b.remaining()) {
		return "", fmt.Errorf("durable: string length %d exceeds remaining %d bytes", n, b.remaining())
	}
	s := string(b.data[b.off : b.off+int(n)])
	b.off += int(n)
	return s, nil
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendSortedPreds appends the map's predicates that have tuples to dst,
// sorting the appended ones so the encoded bytes of a batch are
// reproducible.
func appendSortedPreds(dst []string, m map[string][]storage.Tuple) []string {
	n := len(dst)
	for p := range m {
		if len(m[p]) > 0 {
			dst = append(dst, p)
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// groupSize is the encoded length of a group whose non-empty predicates,
// sorted, are preds.
func groupSize(m map[string][]storage.Tuple, preds []string) int {
	n := 4
	for _, p := range preds {
		n += 4 + len(p) + 4 + 4
		for _, t := range m[p] {
			for _, v := range t {
				n += 4 + len(v)
			}
		}
	}
	return n
}

func appendGroup(dst []byte, m map[string][]storage.Tuple, preds []string) []byte {
	dst = appendU32(dst, uint32(len(preds)))
	for _, p := range preds {
		tuples := m[p]
		arity := len(tuples[0])
		dst = appendStr(dst, p)
		dst = appendU32(dst, uint32(arity))
		dst = appendU32(dst, uint32(len(tuples)))
		for _, t := range tuples {
			for _, v := range t {
				dst = appendStr(dst, v)
			}
		}
	}
	return dst
}

// frameEncoder encodes WAL record frames, keeping its frame buffer and
// predicate scratch between records: a Store holds one under its mutex, so
// a batch allocates no frame once one as large has been encoded. A buffer
// grown past maxKeptFrame is not kept, so one huge batch does not hold its
// frame for the life of the store, and the predicate scratch is cleared
// after each frame, so it holds no batch's names.
type frameEncoder struct {
	frame []byte
	preds []string
}

// maxKeptFrame bounds the frame buffer a frameEncoder keeps between records.
const maxKeptFrame = 1 << 18

// encodeRecordFrame serializes one update batch as a whole WAL frame into a
// buffer of its own, sized exactly from the batch (frameEncoder.encode).
func encodeRecordFrame(lsn uint64, deletes, inserts map[string][]storage.Tuple) []byte {
	var e frameEncoder
	return e.encode(lsn, deletes, inserts)
}

// encode serializes one update batch as a whole WAL frame — header and
// payload — into the kept buffer, or, when that is too small, into one
// sized exactly from the batch: it reserves the header, appends the
// payload, then fills in the payload's length and CRC32C. The frame is
// valid until the next encode.
func (e *frameEncoder) encode(lsn uint64, deletes, inserts map[string][]storage.Tuple) []byte {
	e.preds = appendSortedPreds(e.preds[:0], deletes)
	nd := len(e.preds)
	e.preds = appendSortedPreds(e.preds, inserts)
	dp, ip := e.preds[:nd], e.preds[nd:]
	size := frameHeader + 8 + groupSize(deletes, dp) + groupSize(inserts, ip)
	if cap(e.frame) < size {
		e.frame = make([]byte, 0, size)
	}
	frame := e.frame[:frameHeader]
	frame = appendU64(frame, lsn)
	frame = appendGroup(frame, deletes, dp)
	frame = appendGroup(frame, inserts, ip)
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	clear(e.preds)
	if cap(e.frame) > maxKeptFrame {
		e.frame = nil
	}
	return frame
}

func decodeGroup(b *buf) (map[string][]storage.Tuple, error) {
	n, err := b.u32()
	if err != nil {
		return nil, err
	}
	// Each predicate entry costs at least 12 bytes (empty name + arity +
	// count), so n is bounded by the input.
	if int64(n)*12 > int64(b.remaining()) {
		return nil, fmt.Errorf("durable: group claims %d predicates in %d bytes", n, b.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	out := make(map[string][]storage.Tuple, n)
	for i := 0; i < int(n); i++ {
		pred, err := b.str()
		if err != nil {
			return nil, err
		}
		if pred == "" {
			return nil, fmt.Errorf("durable: empty predicate name in record")
		}
		arity, err := b.u32()
		if err != nil {
			return nil, err
		}
		if arity == 0 || arity > maxArity {
			return nil, fmt.Errorf("durable: predicate %s: arity %d out of range", pred, arity)
		}
		count, err := b.u32()
		if err != nil {
			return nil, err
		}
		// Every tuple value carries a 4-byte length prefix.
		if int64(count)*int64(arity)*4 > int64(b.remaining()) {
			return nil, fmt.Errorf("durable: predicate %s: %d tuples of arity %d exceed remaining %d bytes", pred, count, arity, b.remaining())
		}
		if _, dup := out[pred]; dup {
			return nil, fmt.Errorf("durable: predicate %s repeated in record group", pred)
		}
		tuples := make([]storage.Tuple, int(count))
		for j := range tuples {
			t := make(storage.Tuple, int(arity))
			for c := range t {
				v, err := b.str()
				if err != nil {
					return nil, err
				}
				t[c] = v
			}
			tuples[j] = t
		}
		out[pred] = tuples
	}
	return out, nil
}

// decodeRecordPayload parses one WAL record body. It never panics:
// malformed input returns an error.
func decodeRecordPayload(payload []byte) (Record, error) {
	b := &buf{data: payload}
	lsn, err := b.u64()
	if err != nil {
		return Record{}, err
	}
	deletes, err := decodeGroup(b)
	if err != nil {
		return Record{}, err
	}
	inserts, err := decodeGroup(b)
	if err != nil {
		return Record{}, err
	}
	if b.remaining() != 0 {
		return Record{}, fmt.Errorf("durable: %d trailing bytes after record", b.remaining())
	}
	return Record{LSN: lsn, Deletes: deletes, Inserts: inserts}, nil
}

// crcWriter passes writes on to w, keeping the byte count and the running
// CRC32C of everything w accepted.
type crcWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// writeSegment streams one relation's tuples to w column by column,
// through bw (reset onto w, so one buffer serves every segment of a
// checkpoint). It returns the segment's length and the CRC32C of the whole
// file, trailer included — what RelationMeta records. The body is flushed
// before the trailer, so the running CRC at that point is the body CRC the
// trailer carries.
func writeSegment(w io.Writer, tuples []storage.Tuple, arity int, bw *bufio.Writer) (int64, uint32, error) {
	sum := &crcWriter{w: w}
	bw.Reset(sum)
	bw.WriteString(segMagic)
	putU32(bw, uint32(arity))
	putU32(bw, uint32(len(tuples)))
	for c := 0; c < arity; c++ {
		colBytes := 0
		for _, t := range tuples {
			colBytes += 4 + len(t[c])
		}
		putU64(bw, uint64(colBytes))
		for _, t := range tuples {
			putU32(bw, uint32(len(t[c])))
			bw.WriteString(t[c])
		}
	}
	// bufio.Writer errors are sticky: a failed write above surfaces here.
	if err := bw.Flush(); err != nil {
		return sum.n, sum.crc, err
	}
	putU32(bw, sum.crc)
	err := bw.Flush()
	return sum.n, sum.crc, err
}

// putU32 and putU64 encode into bw's free space, flushing first when it
// holds too little, so a fixed-width header never allocates.
func putU32(bw *bufio.Writer, v uint32) {
	if bw.Available() < 4 {
		bw.Flush()
	}
	bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), v))
}

func putU64(bw *bufio.Writer, v uint64) {
	if bw.Available() < 8 {
		bw.Flush()
	}
	bw.Write(binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), v))
}

// decodeSegment parses and verifies one segment file. wantArity and
// wantRows come from the manifest; -1 skips the cross-check (fuzzing).
func decodeSegment(data []byte, wantArity, wantRows int) ([]storage.Tuple, int, error) {
	if len(data) < len(segMagic)+4+4+4 {
		return nil, 0, fmt.Errorf("durable: segment too short (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, 0, fmt.Errorf("durable: bad segment magic %q", data[:len(segMagic)])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, 0, fmt.Errorf("durable: segment checksum mismatch (got %08x, want %08x)", got, sum)
	}
	b := &buf{data: body, off: len(segMagic)}
	arity32, err := b.u32()
	if err != nil {
		return nil, 0, err
	}
	rows32, err := b.u32()
	if err != nil {
		return nil, 0, err
	}
	arity, rows := int(arity32), int(rows32)
	if arity32 == 0 || arity32 > maxArity {
		return nil, 0, fmt.Errorf("durable: segment arity %d out of range", arity32)
	}
	if wantArity >= 0 && arity != wantArity {
		return nil, 0, fmt.Errorf("durable: segment arity %d, manifest says %d", arity, wantArity)
	}
	if wantRows >= 0 && rows != wantRows {
		return nil, 0, fmt.Errorf("durable: segment holds %d rows, manifest says %d", rows, wantRows)
	}
	// Every value costs at least its 4-byte length prefix; reject row and
	// arity claims the input cannot possibly hold before allocating.
	if int64(rows)*int64(arity)*4 > int64(b.remaining()) {
		return nil, 0, fmt.Errorf("durable: segment claims %d rows of arity %d in %d bytes", rows, arity, b.remaining())
	}
	tuples := make([]storage.Tuple, rows)
	for i := range tuples {
		tuples[i] = make(storage.Tuple, arity)
	}
	for c := 0; c < arity; c++ {
		colBytes, err := b.u64()
		if err != nil {
			return nil, 0, err
		}
		start := b.off
		for i := 0; i < rows; i++ {
			v, err := b.str()
			if err != nil {
				return nil, 0, err
			}
			tuples[i][c] = v
		}
		if int64(b.off-start) != int64(colBytes) {
			return nil, 0, fmt.Errorf("durable: column %d consumed %d bytes, header says %d", c, b.off-start, colBytes)
		}
	}
	if b.remaining() != 0 {
		return nil, 0, fmt.Errorf("durable: %d trailing bytes after segment columns", b.remaining())
	}
	return tuples, arity, nil
}

// Manifest describes one snapshot: the format version, the log position it
// captures, the view definitions it was materialized under, and every
// relation segment with its row count and checksum. It keeps no planning
// statistics; manifests that carry them (a "distinct" array per relation,
// written before the engine read its statistics off the column indexes)
// still decode, the key ignored.
type Manifest struct {
	Format        int    `json:"format"`
	LSN           uint64 `json:"lsn"`
	CreatedUnixNs int64  `json:"created_unix_ns"`
	// ViewsFingerprint identifies the view-definition set the extents were
	// materialized under; a mismatch at open time means the snapshot's
	// extents are stale and only its base relations are trustworthy.
	ViewsFingerprint string         `json:"views_fingerprint"`
	Layout           string         `json:"layout"`
	Relations        []RelationMeta `json:"relations"`
}

// LayoutFull marks a snapshot holding the base relations and every view
// extent — the maintainer's full state, from which either serving layout
// (the extents alone, or base+extents for partial rewritings) is derivable.
const LayoutFull = "full"

// RelationMeta describes one relation segment in a snapshot.
type RelationMeta struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
	Rows  int    `json:"rows"`
	// Extent marks materialized view extents (vs base relations).
	Extent bool   `json:"extent,omitempty"`
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	CRC    uint32 `json:"crc32c"`
}

var segFileName = regexp.MustCompile(`^seg-\d{4}\.col$`)

// decodeManifest parses and validates a snapshot manifest. It never
// panics: malformed input returns an error.
func decodeManifest(data []byte) (*Manifest, error) {
	// Baseline is the one key refused rather than ignored: manifests written
	// while the maintainer kept the facts given for a view as a set of
	// Tuple.Key strings carry that set under it, and booting without them
	// would silently lose those facts.
	var legacy struct {
		Manifest
		Baseline json.RawMessage `json:"baseline"`
	}
	if err := json.Unmarshal(data, &legacy); err != nil {
		return nil, fmt.Errorf("durable: manifest: %w", err)
	}
	if legacy.Baseline != nil {
		return nil, fmt.Errorf(`durable: manifest carries a legacy "baseline" key (the facts given for views, as written before they were kept in a relation of their own); this build does not read such data directories`)
	}
	m := legacy.Manifest
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("durable: manifest format %d, this build reads %d", m.Format, manifestFormat)
	}
	if m.Layout != LayoutFull {
		return nil, fmt.Errorf("durable: unknown snapshot layout %q", m.Layout)
	}
	seen := make(map[string]bool, len(m.Relations))
	files := make(map[string]bool, len(m.Relations))
	for i := range m.Relations {
		r := &m.Relations[i]
		if r.Name == "" {
			return nil, fmt.Errorf("durable: manifest relation %d has an empty name", i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("durable: manifest repeats relation %s", r.Name)
		}
		seen[r.Name] = true
		if r.Arity <= 0 || r.Arity > maxArity {
			return nil, fmt.Errorf("durable: manifest relation %s: arity %d out of range", r.Name, r.Arity)
		}
		if r.Rows < 0 {
			return nil, fmt.Errorf("durable: manifest relation %s: negative row count", r.Name)
		}
		if !segFileName.MatchString(r.File) {
			return nil, fmt.Errorf("durable: manifest relation %s: bad segment file name %q", r.Name, r.File)
		}
		if files[r.File] {
			return nil, fmt.Errorf("durable: manifest repeats segment file %s", r.File)
		}
		files[r.File] = true
		if r.Bytes < 0 {
			return nil, fmt.Errorf("durable: manifest relation %s: negative segment size", r.Name)
		}
	}
	return &m, nil
}

func encodeManifest(m *Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("durable: manifest: %w", err)
	}
	return append(data, '\n'), nil
}
