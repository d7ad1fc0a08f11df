package storage

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cq"
)

// ReadDatabase parses datalog facts from r into a new database. Rules in
// the input are rejected.
func ReadDatabase(r io.Reader) (*Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	prog, err := cq.ParseProgram(string(data))
	if err != nil {
		return nil, err
	}
	if len(prog.Queries) > 0 {
		return nil, fmt.Errorf("storage: input contains rules; only ground facts are allowed")
	}
	db := NewDatabase()
	if err := db.LoadFacts(prog.Facts); err != nil {
		return nil, err
	}
	return db, nil
}

// Equal reports whether two databases hold exactly the same relations and
// tuples.
func (db *Database) Equal(other *Database) bool {
	if len(db.rels) != len(other.rels) {
		return false
	}
	for pred, rel := range db.rels {
		orel, ok := other.rels[pred]
		if !ok || rel.Len() != orel.Len() || rel.Arity() != orel.Arity() {
			return false
		}
		for _, t := range rel.tuples {
			if !orel.Contains(t) {
				return false
			}
		}
	}
	return true
}

// Summary returns a one-line-per-relation description, for diagnostics.
func (db *Database) Summary() string {
	preds := db.Predicates()
	lines := make([]string, 0, len(preds))
	for _, p := range preds {
		lines = append(lines, fmt.Sprintf("%s/%d: %d tuples", p, db.rels[p].Arity(), db.rels[p].Len()))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
