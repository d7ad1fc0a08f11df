package cq

import "strings"

// Atom is a relational atom: a predicate applied to a list of terms. It is
// used both for query heads and body subgoals, and (with all-constant
// arguments) for database facts.
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom from a predicate name and terms.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// IsGround reports whether every argument is a constant.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.IsVar() {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports whether two atoms are syntactically identical.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// String renders the atom in surface syntax, e.g. "r(X,'a',3)".
func (a Atom) String() string {
	var sb strings.Builder
	sb.WriteString(a.Pred)
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// CompOp enumerates the comparison operators over the densely ordered
// constant domain.
type CompOp uint8

const (
	// Lt is strict less-than.
	Lt CompOp = iota
	// Le is less-than-or-equal.
	Le
	// Gt is strict greater-than.
	Gt
	// Ge is greater-than-or-equal.
	Ge
	// Eq is equality.
	Eq
	// Ne is disequality.
	Ne
)

// String renders the operator in surface syntax.
func (op CompOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	default:
		return "?"
	}
}

// Flip returns the operator with its operands exchanged, so that
// (a op b) == (b op.Flip() a).
func (op CompOp) Flip() CompOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return op // Eq and Ne are symmetric.
	}
}

// Negate returns the complement of the operator, so that
// (a op b) == !(a op.Negate() b).
func (op CompOp) Negate() CompOp {
	switch op {
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	case Eq:
		return Ne
	default:
		return Eq
	}
}

// EvalConst evaluates the operator on two constant terms.
func (op CompOp) EvalConst(a, b Term) bool {
	c := CompareConst(a, b)
	switch op {
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	default:
		return false
	}
}

// Comparison is an arithmetic comparison predicate between two terms, e.g.
// "X < 5" or "X != Y".
type Comparison struct {
	Left  Term
	Op    CompOp
	Right Term
}

// NewComparison builds a comparison.
func NewComparison(left Term, op CompOp, right Term) Comparison {
	return Comparison{Left: left, Op: op, Right: right}
}

// String renders the comparison in surface syntax.
func (c Comparison) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// Normalize orients the comparison so that Gt/Ge become Lt/Le and, for the
// symmetric operators, the lexicographically smaller rendering comes first.
// Normalised comparisons compare equal iff they denote the same constraint.
func (c Comparison) Normalize() Comparison {
	switch c.Op {
	case Gt, Ge:
		return Comparison{Left: c.Right, Op: c.Op.Flip(), Right: c.Left}
	case Eq, Ne:
		if c.Right.String() < c.Left.String() {
			return Comparison{Left: c.Right, Op: c.Op, Right: c.Left}
		}
	}
	return c
}
