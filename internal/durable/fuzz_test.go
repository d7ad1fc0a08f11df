package durable

import (
	"encoding/json"
	"testing"
)

// The decoders sit on the recovery path and read bytes that survived a
// crash — or a corruption. The contract under arbitrary input is: return
// an error, never panic, never allocate unboundedly. The seed corpus
// (testdata/fuzz/) holds valid encodings plus truncated and bit-flipped
// variants; go test runs the seeds on every plain test run, and
// `go test -fuzz` explores from them.

func FuzzDecodeRecord(f *testing.F) {
	valid := encodeRecordFrame(7, batch("r", "a,1"), batch("s", "b,2", "c,3"))[frameHeader:]
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	flipped := append([]byte(nil), valid...)
	flipped[9] ^= 0x80
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecordPayload(data)
		if err == nil {
			// The decoder tolerates cosmetic variation the encoder never
			// produces (unsorted predicates, zero-tuple groups), so exact
			// byte idempotence does not hold — but one encode round must
			// reach a fixed point.
			enc := encodeRecordFrame(rec.LSN, rec.Deletes, rec.Inserts)[frameHeader:]
			rec2, err2 := decodeRecordPayload(enc)
			if err2 != nil {
				t.Fatalf("re-encoded record fails to decode: %v", err2)
			}
			if got := encodeRecordFrame(rec2.LSN, rec2.Deletes, rec2.Inserts)[frameHeader:]; string(got) != string(enc) {
				t.Fatalf("encode not stable after one round:\nfirst  %x\nsecond %x", enc, got)
			}
		}
	})
}

func FuzzDecodeManifest(f *testing.F) {
	// A manifest as written before the facts given for a view had a relation
	// of their own: its "baseline" key must refuse it.
	legacy := []byte(`{"format": 1, "lsn": 3, "views_fingerprint": "fp", "layout": "full",
		"relations": [{"name": "r", "arity": 2, "rows": 10, "file": "seg-0000.col", "bytes": 100, "crc32c": 1},
			{"name": "v", "arity": 2, "rows": 5, "extent": true, "file": "seg-0001.col", "bytes": 50, "crc32c": 2}],
		"baseline": {"v": ["a\u001fb"]}}`)
	if _, err := decodeManifest(legacy); err == nil {
		f.Fatal("a manifest with a baseline decoded")
	}
	f.Add(legacy)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format": 1, "layout": "full"}`))
	f.Add([]byte(`{"format": 1, "layout": "full", "relations": [{"name": "r", "arity": -1}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err == nil {
			if _, merr := json.Marshal(m); merr != nil {
				t.Fatalf("accepted manifest cannot re-marshal: %v", merr)
			}
		}
	})
}

func FuzzDecodeSegment(f *testing.F) {
	valid := segmentBytes(f, tuples("a,1", "b,2", "c,3"), 2)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte("AQVSEG01"))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		tuples, arity, err := decodeSegment(data, -1, -1)
		if err == nil {
			if got := segmentBytes(t, tuples, arity); string(got) != string(data) {
				t.Fatalf("decode/encode not idempotent:\nin  %x\nout %x", data, got)
			}
		}
	})
}
