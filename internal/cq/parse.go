package cq

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
)

// Program is the result of parsing a datalog-style text: named rules
// (queries/views) and ground facts.
type Program struct {
	Queries []*Query
	Facts   []Atom
}

// ParseQuery parses a single rule such as
//
//	q(X,Y) :- r(X,Z), s(Z,Y), Z < 5, X != Y.
//
// The trailing period is optional. Variables begin with an upper-case letter
// or underscore; constants are lower-case identifiers, numbers, or quoted
// strings ('like this').
func ParseQuery(src string) (*Query, error) {
	p := newParser(src)
	defer p.release()
	q, err := p.rule()
	if err != nil {
		return nil, err
	}
	p.accept(tokDot)
	if p.cur.kind != tokEOF {
		return nil, p.errorf("trailing input after query: %q", p.cur.text)
	}
	if q == nil {
		return nil, p.errorf("expected a rule with a body, got a fact")
	}
	return q, nil
}

// MustParseQuery is ParseQuery that panics on error; intended for tests and
// examples with literal query text.
func MustParseQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseProgram parses a sequence of rules and facts separated by periods.
// Lines starting with '%' or '#' are comments.
func ParseProgram(src string) (*Program, error) {
	p := newParser(src)
	defer p.release()
	prog := &Program{}
	for p.cur.kind != tokEOF {
		q, err := p.rule()
		if err != nil {
			return nil, err
		}
		if q != nil {
			prog.Queries = append(prog.Queries, q)
		} else {
			prog.Facts = append(prog.Facts, p.lastFact)
		}
		if !p.accept(tokDot) && p.cur.kind != tokEOF {
			return nil, p.errorf("expected '.' between statements, got %q", p.cur.text)
		}
	}
	return prog, nil
}

// ParseViews parses a program and returns its rules, requiring that no facts
// appear. It is a convenience for view-set files.
func ParseViews(src string) ([]*Query, error) {
	prog, err := ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Facts) > 0 {
		return nil, fmt.Errorf("cq: unexpected fact %s in view definitions", prog.Facts[0])
	}
	return prog.Queries, nil
}

type tokKind uint8

const (
	tokEOF   tokKind = iota
	tokIdent         // lower-case identifier
	tokVar           // upper-case identifier or _name
	tokNumber
	tokString // quoted constant; a term, never a predicate name
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokImplies // :-
	tokOp      // comparison operator
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	src      string
	pos      int
	cur      token
	lastFact Atom
	// A rule is collected here and copied out exactly (emit): terms holds
	// its atoms' arguments one after another, atoms each atom's predicate
	// and where its arguments end in terms, the head first, and comps its
	// comparisons.
	terms    []Term
	atoms    []parsedAtom
	comps    []Comparison
	released bool
}

// parsedAtom is an atom of the rule being parsed: its arguments end at
// terms[end].
type parsedAtom struct {
	pred string
	end  int
}

// parsers holds released parsers with the arrays earlier rules grew.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// raceChecks is set under the race detector (race.go): a released parser
// is then marked and dropped instead of pooled, so that a use after release
// panics instead of finding a parser the pool handed on.
var raceChecks bool

func newParser(src string) *parser {
	p := parsers.Get().(*parser)
	p.src, p.pos = src, 0
	p.next()
	return p
}

// live panics when p has been released.
func (p *parser) live() {
	if p.released {
		panic("cq: parser used after release")
	}
}

// release returns p to the pool, keeping none of the text it parsed.
func (p *parser) release() {
	p.live()
	clear(p.terms)
	clear(p.atoms)
	clear(p.comps)
	p.src, p.cur, p.lastFact = "", token{}, Atom{}
	if raceChecks {
		p.released = true // dropped, so a use after release finds it marked
		return
	}
	parsers.Put(p)
}

func (p *parser) errorf(format string, args ...any) error {
	line := 1 + strings.Count(p.src[:min(p.cur.pos, len(p.src))], "\n")
	return fmt.Errorf("cq: parse error at line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) next() {
	// Skip whitespace and comments.
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '%' || c == '#' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		break
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.cur = token{kind: tokEOF, pos: start}
		return
	}
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		p.cur = token{tokLParen, "(", start}
	case c == ')':
		p.pos++
		p.cur = token{tokRParen, ")", start}
	case c == ',':
		p.pos++
		p.cur = token{tokComma, ",", start}
	case c == '.':
		p.pos++
		p.cur = token{tokDot, ".", start}
	case c == ':' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '-':
		p.pos += 2
		p.cur = token{tokImplies, ":-", start}
	case c == '<' || c == '>' || c == '=' || c == '!':
		op := string(c)
		p.pos++
		if p.pos < len(p.src) && p.src[p.pos] == '=' {
			op += "="
			p.pos++
		}
		p.cur = token{tokOp, op, start}
	case c == '\'':
		p.pos++
		var sb strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '\'' {
			sb.WriteByte(p.src[p.pos])
			p.pos++
		}
		if p.pos >= len(p.src) {
			p.cur = token{tokEOF, "", start} // unterminated; caught by caller expecting ident
			return
		}
		p.pos++ // closing quote
		p.cur = token{tokString, sb.String(), start}
	case c >= '0' && c <= '9' || c == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9':
		p.pos++
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.' && p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9') {
			p.pos++
		}
		p.cur = token{tokNumber, p.src[start:p.pos], start}
	case isIdentStart(rune(c)):
		p.pos++
		for p.pos < len(p.src) && isIdentPart(rune(p.src[p.pos])) {
			p.pos++
		}
		text := p.src[start:p.pos]
		if unicode.IsUpper(rune(text[0])) || text[0] == '_' {
			p.cur = token{tokVar, text, start}
		} else {
			p.cur = token{tokIdent, text, start}
		}
	default:
		p.cur = token{tokEOF, string(c), start}
		p.pos++
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (p *parser) accept(k tokKind) bool {
	if p.cur.kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	if p.cur.kind != k {
		return token{}, p.errorf("expected %s, got %q", what, p.cur.text)
	}
	t := p.cur
	p.next()
	return t, nil
}

// rule parses "head :- body" or a ground fact "pred(consts)". For a fact it
// returns (nil, nil) and stores the atom in p.lastFact.
func (p *parser) rule() (*Query, error) {
	p.live()
	p.terms, p.atoms, p.comps = p.terms[:0], p.atoms[:0], p.comps[:0]
	if err := p.atom(); err != nil {
		return nil, err
	}
	if p.cur.kind != tokImplies {
		head := Atom{Pred: p.atoms[0].pred, Args: p.terms}
		if !head.IsGround() {
			return nil, p.errorf("fact %s contains variables; did you forget ':-'?", head)
		}
		head.Args = nil
		if len(p.terms) > 0 {
			head.Args = make([]Term, len(p.terms))
			copy(head.Args, p.terms)
		}
		p.lastFact = head
		return nil, nil
	}
	p.next() // consume :-
	for {
		if err := p.bodyItem(); err != nil {
			return nil, err
		}
		if !p.accept(tokComma) {
			break
		}
	}
	return p.emit(), nil
}

// emit copies the rule collected in p's scratch out into one array of
// terms, each atom's arguments a window onto it capped at its own length,
// one array of body atoms, one of comparisons when there are any, and the
// query.
func (p *parser) emit() *Query {
	terms := make([]Term, len(p.terms))
	copy(terms, p.terms)
	window := func(i int) Atom {
		start := 0
		if i > 0 {
			start = p.atoms[i-1].end
		}
		end := p.atoms[i].end
		return Atom{Pred: p.atoms[i].pred, Args: terms[start:end:end]}
	}
	q := &Query{Head: window(0)}
	if n := len(p.atoms) - 1; n > 0 {
		q.Body = make([]Atom, n)
		for i := range q.Body {
			q.Body[i] = window(i + 1)
		}
	}
	if len(p.comps) > 0 {
		q.Comparisons = make([]Comparison, len(p.comps))
		copy(q.Comparisons, p.comps)
	}
	return q
}

// bodyItem parses either a relational atom or a comparison into p's
// scratch.
func (p *parser) bodyItem() error {
	// A comparison starts with a term followed by an operator; an atom
	// starts with an identifier followed by '('.
	if p.cur.kind == tokIdent || p.cur.kind == tokVar || p.cur.kind == tokNumber || p.cur.kind == tokString {
		// Look ahead: save state.
		savePos, saveCur := p.pos, p.cur
		left, err := p.term()
		if err != nil {
			return err
		}
		if p.cur.kind == tokOp {
			opTok := p.cur
			p.next()
			right, err := p.term()
			if err != nil {
				return err
			}
			op, err := parseOp(opTok.text)
			if err != nil {
				return p.errorf("%v", err)
			}
			p.comps = append(p.comps, Comparison{Left: left, Op: op, Right: right})
			return nil
		}
		// Not a comparison: rewind and parse an atom.
		p.pos, p.cur = savePos, saveCur
	}
	return p.atom()
}

func parseOp(s string) (CompOp, error) {
	switch s {
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	case "=", "==":
		return Eq, nil
	case "!=":
		return Ne, nil
	default:
		return 0, fmt.Errorf("unknown comparison operator %q", s)
	}
}

// atom parses an atom into p's scratch: its arguments onto terms, its
// predicate onto atoms.
func (p *parser) atom() error {
	name, err := p.expect(tokIdent, "predicate name")
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return err
	}
	if p.cur.kind != tokRParen {
		for {
			t, err := p.term()
			if err != nil {
				return err
			}
			p.terms = append(p.terms, t)
			if !p.accept(tokComma) {
				break
			}
		}
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return err
	}
	p.atoms = append(p.atoms, parsedAtom{pred: name.text, end: len(p.terms)})
	return nil
}

func (p *parser) term() (Term, error) {
	switch p.cur.kind {
	case tokVar:
		t := Var(p.cur.text)
		p.next()
		return t, nil
	case tokIdent, tokString:
		t := Const(p.cur.text)
		p.next()
		return t, nil
	case tokNumber:
		t := Const(p.cur.text)
		p.next()
		return t, nil
	default:
		return Term{}, p.errorf("expected a term, got %q", p.cur.text)
	}
}
