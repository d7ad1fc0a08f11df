package datalog

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cq"
	"repro/internal/storage"
)

// Skolem is a function term f(X1,...,Xk) appearing in a rule head. During
// evaluation it constructs the tagged value "f(v1,...,vk)" from the bound
// argument variables; two Skolem values join iff they were built by the
// same function on the same arguments.
type Skolem struct {
	Name string
	Args []string // variable names
}

// String renders the Skolem term.
func (s Skolem) String() string {
	return s.Name + "(" + strings.Join(s.Args, ",") + ")"
}

// Value constructs the Skolem value for the given bindings.
func (s Skolem) Value(b Bindings) (string, bool) {
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		v, ok := b[a]
		if !ok {
			return "", false
		}
		parts[i] = v
	}
	return skolemValue(s.Name, parts), true
}

// skolemValue builds the tagged data value of a Skolem application — the
// interpreter's (Skolem.Value) form of appendSkolem.
func skolemValue(name string, parts []string) string {
	return string(appendSkolem(nil, name, parts))
}

// appendSkolem appends the tagged data value of a Skolem application,
// "⟨name:arg1␟arg2…⟩", to buf. It is the one encoder of Skolem values: the
// interpreter and the compiled head-row scratch (headScratch) both call it,
// so the two evaluators always construct identical values.
func appendSkolem(buf []byte, name string, args []string) []byte {
	buf = append(buf, "⟨"...)
	buf = append(buf, name...)
	buf = append(buf, ':')
	for i, a := range args {
		if i > 0 {
			buf = append(buf, 0x1f)
		}
		buf = append(buf, a...)
	}
	return append(buf, "⟩"...)
}

// IsSkolemValue reports whether a data value was constructed by a Skolem
// function (and therefore denotes an unknown constant).
func IsSkolemValue(v string) bool {
	return strings.HasPrefix(v, "⟨") && strings.HasSuffix(v, "⟩")
}

// HasSkolem reports whether any value of the tuple is a Skolem value.
func HasSkolem(t storage.Tuple) bool {
	for _, v := range t {
		if IsSkolemValue(v) {
			return true
		}
	}
	return false
}

// CertainAnswers filters out tuples containing Skolem values (unknown
// constants an inverse-rules fixpoint invented) and returns the rest in
// sorted order — the certain-answer set of an answer relation. The input
// slice is not modified.
func CertainAnswers(tuples []storage.Tuple) []storage.Tuple {
	answers := make([]storage.Tuple, 0, len(tuples))
	for _, t := range tuples {
		if !HasSkolem(t) {
			answers = append(answers, t)
		}
	}
	return storage.SortTuples(answers)
}

// HeadTerm is one argument position of a rule head: a plain term or a
// Skolem function term.
type HeadTerm struct {
	Term   cq.Term // used when Skolem is nil
	Skolem *Skolem
}

// PlainHead converts an atom into head terms without Skolems.
func PlainHead(a cq.Atom) []HeadTerm {
	out := make([]HeadTerm, len(a.Args))
	for i, t := range a.Args {
		out[i] = HeadTerm{Term: t}
	}
	return out
}

// Rule is a datalog rule whose head may contain Skolem terms.
type Rule struct {
	HeadPred    string
	Head        []HeadTerm
	Body        []cq.Atom
	Comparisons []cq.Comparison
}

// RuleFromQuery converts a conjunctive query into a plain rule.
func RuleFromQuery(q *cq.Query) Rule {
	return Rule{
		HeadPred:    q.Name(),
		Head:        PlainHead(q.Head),
		Body:        q.Body,
		Comparisons: q.Comparisons,
	}
}

// String renders the rule in datalog syntax.
func (r Rule) String() string {
	args := make([]string, len(r.Head))
	for i, h := range r.Head {
		if h.Skolem != nil {
			args[i] = h.Skolem.String()
		} else {
			args[i] = h.Term.String()
		}
	}
	var sb strings.Builder
	sb.WriteString(r.HeadPred)
	sb.WriteByte('(')
	sb.WriteString(strings.Join(args, ","))
	sb.WriteString(") :- ")
	for i, a := range r.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	for _, c := range r.Comparisons {
		sb.WriteString(", ")
		sb.WriteString(c.String())
	}
	sb.WriteByte('.')
	return sb.String()
}

// headTupleOf builds the derived tuple for the rule under bindings.
func (r Rule) headTupleOf(b Bindings) (storage.Tuple, error) {
	t := make(storage.Tuple, len(r.Head))
	for i, h := range r.Head {
		switch {
		case h.Skolem != nil:
			v, ok := h.Skolem.Value(b)
			if !ok {
				return nil, fmt.Errorf("datalog: unbound Skolem argument in %s", h.Skolem)
			}
			t[i] = v
		case h.Term.IsConst():
			t[i] = h.Term.Lex
		default:
			v, ok := b[h.Term.Lex]
			if !ok {
				return nil, fmt.Errorf("datalog: unbound head variable %s", h.Term.Lex)
			}
			t[i] = v
		}
	}
	return t, nil
}

// Program is a set of datalog rules evaluated to fixpoint.
type Program struct {
	Rules []Rule
}

// Predicates returns the predicates the program's rules name, heads and
// bodies, sorted: every relation a compile of it may ask statistics of.
func (p *Program) Predicates() []string {
	var out []string
	for _, r := range p.Rules {
		out = append(out, r.HeadPred)
		for _, a := range r.Body {
			out = append(out, a.Pred)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// String renders the program one rule per line.
func (p *Program) String() string {
	lines := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}

// EvalInterp computes the fixpoint of the program over the EDB semi-naively
// with the tuple-at-a-time interpreter (map-based bindings, per-call greedy
// join ordering) and returns a database containing the EDB relations plus
// all derived (IDB) relations. The input database is not modified: the
// result is a clone of it, which shares its tables until written.
//
// It computes the same relations as the compiled Eval and serves as the
// baseline the compiled fixpoint executor is benchmarked and differentially
// tested against.
func (p *Program) EvalInterp(edb *storage.Database) (*storage.Database, error) {
	db := edb.Clone()
	// delta holds tuples derived in the previous round, per predicate.
	delta := make(map[string][]storage.Tuple)

	// Round 0: fire every rule on the full database.
	for _, r := range p.Rules {
		if err := fireRule(db, r, delta); err != nil {
			return nil, err
		}
	}
	// Subsequent rounds: for each rule and each body position over an IDB
	// predicate with a non-empty delta, join that delta against the full
	// database.
	for len(delta) > 0 {
		prev := delta
		delta = make(map[string][]storage.Tuple)
		for _, r := range p.Rules {
			for pos, a := range r.Body {
				d, ok := prev[a.Pred]
				if !ok || len(d) == 0 {
					continue
				}
				if err := fireRuleWithDelta(db, r, pos, d, delta); err != nil {
					return nil, err
				}
			}
		}
	}
	return db, nil
}

// fireRule evaluates the rule body over db and inserts derived tuples,
// recording new ones in delta.
func fireRule(db *storage.Database, r Rule, delta map[string][]storage.Tuple) error {
	rel, err := db.Ensure(r.HeadPred, len(r.Head))
	if err != nil {
		return err
	}
	var evalErr error
	joinBody(db, r.Body, r.Comparisons, make(Bindings), func(b Bindings) bool {
		t, err := r.headTupleOf(b)
		if err != nil {
			evalErr = err
			return false
		}
		if rel.Insert(t) {
			delta[r.HeadPred] = append(delta[r.HeadPred], t)
		}
		return true
	})
	return evalErr
}

// fireRuleWithDelta evaluates the rule with body position pos restricted to
// the delta tuples.
func fireRuleWithDelta(db *storage.Database, r Rule, pos int, deltaTuples []storage.Tuple, delta map[string][]storage.Tuple) error {
	rel, err := db.Ensure(r.HeadPred, len(r.Head))
	if err != nil {
		return err
	}
	atom := r.Body[pos]
	rest := make([]cq.Atom, 0, len(r.Body)-1)
	rest = append(rest, r.Body[:pos]...)
	rest = append(rest, r.Body[pos+1:]...)
	var evalErr error
	for _, dt := range deltaTuples {
		b := make(Bindings)
		if bindTuple(atom, dt, b) == nil {
			continue
		}
		joinBody(db, rest, r.Comparisons, b, func(b Bindings) bool {
			t, err := r.headTupleOf(b)
			if err != nil {
				evalErr = err
				return false
			}
			if rel.Insert(t) {
				delta[r.HeadPred] = append(delta[r.HeadPred], t)
			}
			return true
		})
		if evalErr != nil {
			return evalErr
		}
	}
	return nil
}
