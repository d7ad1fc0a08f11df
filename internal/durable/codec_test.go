package durable

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

func crc32Of(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// segmentBytes is writeSegment into memory.
func segmentBytes(t testing.TB, tuples []storage.Tuple, arity int) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, _, err := writeSegment(&out, tuples, arity, bufio.NewWriterSize(nil, segBufSize)); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestDecodeManifestRejects(t *testing.T) {
	cases := map[string]string{
		"future format":   `{"format": 2, "layout": "full"}`,
		"unknown layout":  `{"format": 1, "layout": "delta"}`,
		"empty name":      `{"format": 1, "layout": "full", "relations": [{"name": "", "arity": 1, "file": "seg-0000.col"}]}`,
		"duplicate name":  `{"format": 1, "layout": "full", "relations": [{"name": "r", "arity": 1, "file": "seg-0000.col"}, {"name": "r", "arity": 1, "file": "seg-0001.col"}]}`,
		"zero arity":      `{"format": 1, "layout": "full", "relations": [{"name": "r", "arity": 0, "file": "seg-0000.col"}]}`,
		"negative rows":   `{"format": 1, "layout": "full", "relations": [{"name": "r", "arity": 1, "rows": -1, "file": "seg-0000.col"}]}`,
		"bad file name":   `{"format": 1, "layout": "full", "relations": [{"name": "r", "arity": 1, "file": "../escape"}]}`,
		"duplicate file":  `{"format": 1, "layout": "full", "relations": [{"name": "r", "arity": 1, "file": "seg-0000.col"}, {"name": "s", "arity": 1, "file": "seg-0000.col"}]}`,
		"negative bytes":  `{"format": 1, "layout": "full", "relations": [{"name": "r", "arity": 1, "file": "seg-0000.col", "bytes": -1}]}`,
		"legacy baseline": `{"format": 1, "layout": "full", "relations": [{"name": "v", "arity": 1, "extent": true, "file": "seg-0000.col"}], "baseline": {"v": ["k"]}}`,
		"empty baseline":  `{"format": 1, "layout": "full", "baseline": {}}`,
		"null baseline":   `{"format": 1, "layout": "full", "baseline": null}`,
	}
	for name, in := range cases {
		_, err := decodeManifest([]byte(in))
		if err == nil {
			t.Errorf("%s: decodeManifest accepted %s", name, in)
		} else if strings.Contains(name, "baseline") && !strings.Contains(err.Error(), `"baseline"`) {
			t.Errorf("%s: error %v does not name the baseline key", name, err)
		}
	}
}

// TestDecodeManifestIgnoresDistinct: manifests written while the engine
// persisted its planning statistics carry a "distinct" array per relation
// (the committed FuzzDecodeManifest seed does); they still decode.
func TestDecodeManifestIgnoresDistinct(t *testing.T) {
	in := `{"format": 1, "layout": "full", "relations": [{"name": "r", "arity": 2, "rows": 3, "distinct": [3, 2], "file": "seg-0000.col"}, {"name": "v", "arity": 1, "distinct": [7, 7], "extent": true, "file": "seg-0001.col"}]}`
	m, err := decodeManifest([]byte(in))
	if err != nil {
		t.Fatalf("decodeManifest: %v", err)
	}
	if len(m.Relations) != 2 || m.Relations[0].Rows != 3 || !m.Relations[1].Extent {
		t.Fatalf("decoded %+v", m.Relations)
	}
}

func TestDecodeSegmentRejects(t *testing.T) {
	valid := segmentBytes(t, tuples("a,1", "b,2"), 2)
	reCRC := func(body []byte) []byte { // re-checksum a corrupted body so
		// validation reaches the structural checks past the CRC gate
		return appendU32(body, crc32Of(body))
	}
	cases := map[string][]byte{
		"too short":      []byte("AQV"),
		"bad magic":      append([]byte("XXXSEG01"), valid[8:]...),
		"bad crc":        append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^1),
		"zero arity":     reCRC(append(append([]byte(segMagic), 0, 0, 0, 0), 0, 0, 0, 0)),
		"absurd rows":    reCRC(append(append([]byte(segMagic), 1, 0, 0, 0), 0xff, 0xff, 0xff, 0x7f)),
		"trailing bytes": reCRC(append(append([]byte(nil), valid[:len(valid)-4]...), 0)),
	}
	for name, in := range cases {
		if _, _, err := decodeSegment(in, -1, -1); err == nil {
			t.Errorf("%s: decodeSegment accepted %d bytes", name, len(in))
		}
	}
	// Manifest cross-checks.
	if _, _, err := decodeSegment(valid, 3, 2); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("arity cross-check: got %v", err)
	}
	if _, _, err := decodeSegment(valid, 2, 5); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Errorf("rows cross-check: got %v", err)
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	mk := func(mut func([]byte) []byte) []byte {
		return mut(encodeRecordFrame(1, nil, batch("r", "a,1"))[frameHeader:])
	}
	cases := map[string][]byte{
		"empty":          {},
		"lsn only":       mk(func(b []byte) []byte { return b[:8] }),
		"trailing bytes": mk(func(b []byte) []byte { return append(b, 0) }),
		"truncated":      mk(func(b []byte) []byte { return b[:len(b)-2] }),
	}
	for name, in := range cases {
		if _, err := decodeRecordPayload(in); err == nil {
			t.Errorf("%s: decodeRecordPayload accepted %d bytes", name, len(in))
		}
	}
}

// TestEncodedBytesPinned pins the bytes the encoders produce for fixed
// inputs: the on-disk format is manifestFormat 1, and data directories
// written by earlier builds must keep opening. The hex was produced by the
// encoders that built each segment and payload in memory before segments
// were streamed; it is never regenerated.
func TestEncodedBytesPinned(t *testing.T) {
	segs := []struct {
		name   string
		tuples []storage.Tuple
		arity  int
		want   string
	}{
		{"three rows", []storage.Tuple{{"a", "1"}, {"b", "22"}, {"", "é\x1fz"}}, 2,
			"415156534547303102000000030000000e0000000000000001000000610100000062000000001300000000000000010000003102000000323204000000c3a91f7a11ab3315"},
		{"no rows", nil, 3,
			"4151565345473031030000000000000000000000000000000000000000000000000000000000000012529bb5"},
	}
	for _, c := range segs {
		if got := hex.EncodeToString(segmentBytes(t, c.tuples, c.arity)); got != c.want {
			t.Errorf("segment %s:\ngot  %s\nwant %s", c.name, got, c.want)
		}
	}
	frames := []struct {
		name             string
		lsn              uint64
		deletes, inserts map[string][]storage.Tuple
		want             string
	}{
		{"two groups", 7,
			map[string][]storage.Tuple{"r": {{"a", "1"}}, "q": {}},
			map[string][]storage.Tuple{"t": {{"x"}}, "s": {{"b", "2"}, {"c", ""}}},
			"590000000f9a92060700000000000000010000000100000072020000000100000001000000610100000031020000000100000073020000000200000001000000620100000032010000006300000000010000007401000000010000000100000078"},
		{"empty batch", 1, nil, nil,
			"1000000014977cb001000000000000000000000000000000"},
	}
	for _, c := range frames {
		frame := encodeRecordFrame(c.lsn, c.deletes, c.inserts)
		if got := hex.EncodeToString(frame); got != c.want {
			t.Errorf("frame %s:\ngot  %s\nwant %s", c.name, got, c.want)
		}
		if len(frame) != cap(frame) {
			t.Errorf("frame %s: %d bytes in a buffer of %d, not sized exactly", c.name, len(frame), cap(frame))
		}
	}
}

// TestCommittedSeedsDecode: the valid seeds committed under testdata/fuzz/
// were written by earlier builds; they decode, and re-encoding reproduces
// them byte for byte.
func TestCommittedSeedsDecode(t *testing.T) {
	seed := func(target string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, "valid"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s seed: unexpected corpus file %q", target, data)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s seed: %v", target, err)
		}
		return []byte(s)
	}
	seg := seed("FuzzDecodeSegment")
	tuples, arity, err := decodeSegment(seg, -1, -1)
	if err != nil {
		t.Fatalf("committed segment seed: %v", err)
	}
	if got := segmentBytes(t, tuples, arity); !bytes.Equal(got, seg) {
		t.Errorf("segment seed re-encodes differently:\ngot  %x\nwant %x", got, seg)
	}
	payload := seed("FuzzDecodeRecord")
	rec, err := decodeRecordPayload(payload)
	if err != nil {
		t.Fatalf("committed record seed: %v", err)
	}
	if got := encodeRecordFrame(rec.LSN, rec.Deletes, rec.Inserts)[frameHeader:]; !bytes.Equal(got, payload) {
		t.Errorf("record seed re-encodes differently:\ngot  %x\nwant %x", got, payload)
	}
}

// failAfter accepts its first k bytes, then fails.
type failAfter struct {
	k   int
	out bytes.Buffer
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if room := f.k - f.out.Len(); len(p) > room {
		f.out.Write(p[:room])
		return room, errDiskFull
	}
	return f.out.Write(p)
}

// TestWriteSegmentFailingWriter: a write error at any offset of a segment
// is returned, never lost in the buffer, and the count returned is what
// the writer accepted.
func TestWriteSegmentFailingWriter(t *testing.T) {
	bw := bufio.NewWriterSize(nil, segBufSize)
	check := func(tuples []storage.Tuple, arity int, ks func(total int) []int) {
		t.Helper()
		full := segmentBytes(t, tuples, arity)
		for _, k := range ks(len(full)) {
			if k >= len(full) {
				continue
			}
			w := &failAfter{k: k}
			n, _, err := writeSegment(w, tuples, arity, bw)
			if !errors.Is(err, errDiskFull) {
				t.Fatalf("%d-byte segment, writer failing after %d bytes: err = %v", len(full), k, err)
			}
			if n != int64(w.out.Len()) || !bytes.Equal(w.out.Bytes(), full[:n]) {
				t.Fatalf("%d-byte segment, writer failing after %d bytes: reported %d bytes, writer holds %d", len(full), k, n, w.out.Len())
			}
		}
		w := &failAfter{k: len(full)}
		n, crc, err := writeSegment(w, tuples, arity, bw)
		if err != nil || n != int64(len(full)) || crc != crc32Of(full) || !bytes.Equal(w.out.Bytes(), full) {
			t.Fatalf("%d-byte segment, writer with exactly enough room: n=%d crc=%08x err=%v", len(full), n, crc, err)
		}
	}
	every := func(total int) []int {
		ks := make([]int, total)
		for k := range ks {
			ks[k] = k
		}
		return ks
	}
	check(tuples("a,1", "b,22", ",c"), 2, every)
	// A segment several buffers long, cut at every buffer boundary, next
	// to each, inside the trailer, and at a stride in between.
	var big []storage.Tuple
	for i := 0; len(big) < 20000; i++ {
		big = append(big, storage.Tuple{strconv.Itoa(i), strings.Repeat("v", i%13)})
	}
	check(big, 2, func(total int) []int {
		ks := []int{0, total - 4, total - 3, total - 1}
		for b := segBufSize; b < total; b += segBufSize {
			ks = append(ks, b-1, b, b+1)
		}
		for k := 7; k < total; k += 4093 {
			ks = append(ks, k)
		}
		return ks
	})
}
