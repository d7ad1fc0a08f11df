package storage

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cq"
)

func TestWriteReadRoundTrip(t *testing.T) {
	db := NewDatabase()
	db.Insert("r", Tuple{"a", "b"})
	db.Insert("r", Tuple{"c", "with space"})
	db.Insert("s", Tuple{"42"})
	db.Insert("s", Tuple{"-3.5"})

	// Render every tuple as a fact, quoting values the way the surface
	// syntax prints constants.
	var sb strings.Builder
	for _, pred := range db.Predicates() {
		for _, tu := range db.Relation(pred).Tuples() {
			parts := make([]string, len(tu))
			for i, v := range tu {
				parts[i] = cq.Const(v).String()
			}
			fmt.Fprintf(&sb, "%s(%s).\n", pred, strings.Join(parts, ","))
		}
	}
	back, err := ReadDatabase(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Equal(back) {
		t.Fatalf("round trip lost data:\n%s\nvs\n%s", db.Summary(), back.Summary())
	}
}

func TestReadDatabaseRejectsRules(t *testing.T) {
	if _, err := ReadDatabase(strings.NewReader("q(X) :- r(X).")); err == nil {
		t.Fatal("rules accepted")
	}
}

func TestReadDatabaseParseError(t *testing.T) {
	if _, err := ReadDatabase(strings.NewReader("broken((")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDatabaseEqual(t *testing.T) {
	a := NewDatabase()
	a.Insert("r", Tuple{"x"})
	b := NewDatabase()
	b.Insert("r", Tuple{"x"})
	if !a.Equal(b) {
		t.Fatal("equal databases reported different")
	}
	b.Insert("r", Tuple{"y"})
	if a.Equal(b) {
		t.Fatal("different sizes reported equal")
	}
	c := NewDatabase()
	c.Insert("s", Tuple{"x"})
	if a.Equal(c) {
		t.Fatal("different predicates reported equal")
	}
}

func TestSummary(t *testing.T) {
	db := NewDatabase()
	db.Insert("r", Tuple{"a", "b"})
	if got := db.Summary(); !strings.Contains(got, "r/2: 1 tuples") {
		t.Fatalf("Summary = %q", got)
	}
}
