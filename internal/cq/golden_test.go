package cq

import (
	"os"
	"strings"
	"testing"
)

// TestFingerprintsGolden pins the keys that outlive a process. The engine
// persists a view-set fingerprint built from Fingerprint in every data
// directory and hands out prepared handles named by TemplateFingerprint, so a
// key that changes silently forces every existing data directory through the
// stale-view rebuild and invalidates every client-held handle. The file was
// written once and is never regenerated; internal/engine checks its "views"
// line.
func TestFingerprintsGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/fingerprints.golden")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Split(line, "\t")
		if f[0] != "query" {
			continue
		}
		if len(f) != 4 {
			t.Fatalf("malformed line %q", line)
		}
		n++
		q, err := ParseQuery(f[1])
		if err != nil {
			t.Fatalf("%s: %v", f[1], err)
		}
		if got := Fingerprint(q); got != f[2] {
			t.Errorf("Fingerprint(%s) = %s, golden %s", f[1], got, f[2])
		}
		if got := TemplateFingerprint(q); got != f[3] {
			t.Errorf("TemplateFingerprint(%s) = %s, golden %s", f[1], got, f[3])
		}
	}
	if n < 50 {
		t.Fatalf("%d golden queries, want at least 50", n)
	}
}
