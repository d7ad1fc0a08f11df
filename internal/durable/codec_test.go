package durable

import (
	"hash/crc32"
	"strings"
	"testing"
)

func crc32Of(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

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
		"orphan baseline": `{"format": 1, "layout": "full", "baseline": {"v": ["k"]}}`,
		"empty baseline":  `{"format": 1, "layout": "full", "baseline": {"": ["k"]}}`,
	}
	for name, in := range cases {
		if _, err := decodeManifest([]byte(in)); err == nil {
			t.Errorf("%s: decodeManifest accepted %s", name, in)
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
	valid := encodeSegment(tuples("a,1", "b,2"), 2)
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
		return mut(encodeRecordPayload(1, nil, batch("r", "a,1")))
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
