package cq

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
)

// canonBudget bounds the tie-exploration work Canonicalize performs. Queries
// with many mutually symmetric subgoals (rare in practice) fall back to a
// greedy ordering once the budget is exhausted. That ordering is still a
// function of the query text, but it depends on the input subgoal order:
// α-variants of such a query may get different canonical forms, and so miss
// a cache entry their twin made — never share a wrong one.
const canonBudget = 4096

// Canonicalize returns a canonical copy of q: body atoms are ordered by a
// variable-name-independent key, variables are renamed V0, V1, ... by first
// occurrence over (head, ordered body, comparisons), and comparisons are
// normalised and sorted. Two queries that differ only in variable names
// and/or subgoal order canonicalise to the same query (within the tie budget,
// see canonBudget), so the rendered form is a sound cache key for any
// property invariant under α-renaming (containment, equivalence,
// rewritability, answer sets).
//
// Head argument positions are preserved — the canonical query is always
// α-equivalent to the input, never merely isomorphic.
func Canonicalize(q *Query) *Query {
	s := canonicalise(q, false)
	defer s.release()
	out := new(Query)
	s.fill(out)
	return out
}

// CanonicalizeUnion canonicalises every member and sorts them by rendered
// form, yielding a deterministic representation of a UCQ.
func CanonicalizeUnion(u *Union) *Union {
	if u == nil {
		return &Union{}
	}
	members := make([]*Query, len(u.Queries))
	for i, q := range u.Queries {
		members[i] = Canonicalize(q)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].String() < members[j].String() })
	return &Union{Queries: members}
}

// Fingerprint returns a fixed-size hex key identifying q up to variable
// renaming and subgoal order: α-equivalent query texts share the key, except
// that past the tie budget (canonBudget) two of them may not — a missed cache
// entry, never a wrong answer. It is the cache key used by the engine's plan
// cache and the containment memo, and it is persisted (a data directory's
// view-set fingerprint), so its bytes never change: it hashes exactly what
// Canonicalize(q).String() renders, written without building the query.
func Fingerprint(q *Query) string {
	s := canonicalise(q, false)
	defer s.release()
	s.buf = s.appendQuery(s.buf[:0])
	return hexKey(s.buf)
}

// hexKey is the fixed-size key of the canonical bytes b: the first half of
// their SHA-256, in hex.
func hexKey(b []byte) string {
	sum := sha256.Sum256(b)
	var dst [32]byte
	hex.Encode(dst[:], sum[:16])
	return string(dst[:])
}

// canonVarNames holds the canonical variable names a query of ordinary size
// uses, so that building a canonical query does not format them.
var canonVarNames = func() (names [64]string) {
	for i := range names {
		names[i] = "V" + strconv.Itoa(i)
	}
	return names
}()

// canonVarName returns the canonical name of the variable with index k.
func canonVarName(k int) string {
	if k < len(canonVarNames) {
		return canonVarNames[k]
	}
	return "V" + strconv.Itoa(k)
}

// canonState is the scratch of one canonicalisation, pooled so that a
// fingerprint costs one allocation, the key itself. The query is numbered
// first: every variable — and, for a template, every abstracted constant,
// which is then a placeholder variable — gets a dense id, and each argument
// position holds an id or -1 for a constant that stays concrete.
//
// The body is ordered greedily: at each step it commits the atom whose
// projected key (its rendering under the partial renaming, see appendKey) is
// minimal. Ties between atoms that are not symmetric are resolved by
// exploring each tied branch to completion (within the work budget) and
// keeping the lexicographically smallest rendering of the ordered atoms, the
// first on equal renderings, which makes the result independent of the input
// atom order.
type canonState struct {
	q *Query
	// terms[id] is the variable with that id, or the constant a placeholder
	// abstracts.
	terms []Term
	// head, body (atom i at body[off[i]:off[i+1]]) and comps (two per
	// comparison) hold each argument position's id, or -1.
	head, body, off, comps []int32
	// canon[id] is the id's canonical index, or -1 while unnamed; trail lists
	// the named ids by canonical index, so truncating it undoes a naming.
	canon, trail []int32
	// order is the canonical body order, as atom indexes.
	order []int32
	// stack is a bump allocator for the per-level slices of orderBody; a
	// level that outgrows it gets a fresh array and the outer levels keep
	// theirs.
	stack []int32
	top   int
	local []int32 // appendKey's per-atom numbering of unnamed variables
	// sorted lists the normalised comparisons in canonical order.
	sorted []canonComp
	budget int
	// buf holds projected keys and tie renderings while ordering, then the
	// canonical bytes; cbuf holds the comparisons' renderings.
	buf, cbuf []byte
}

// canonComp is one normalised comparison: the ids and terms of its sides,
// its operator, and its rendering in cbuf.
type canonComp struct {
	l, r       int32
	lt, rt     Term
	op         CompOp
	start, end int32
}

var canonPool = sync.Pool{New: func() any { return new(canonState) }}

// canonicalise numbers q, orders its body and names every variable. With
// tmpl set, every constant that occurs in a relational body atom becomes a
// placeholder variable in the head and the body (see CanonicalizeTemplate).
// The caller releases the result.
func canonicalise(q *Query, tmpl bool) *canonState {
	s := canonPool.Get().(*canonState)
	s.q = q
	s.number(tmpl)
	s.canon = s.canon[:0]
	for range s.terms {
		s.canon = append(s.canon, -1)
	}
	s.trail = s.trail[:0]
	for _, id := range s.head {
		s.name(id)
	}
	n := len(q.Body)
	s.top, s.budget = 0, canonBudget
	rem := s.take(n)
	for i := range rem {
		rem[i] = int32(i)
	}
	s.order = resizeInt32(s.order, n)
	s.orderBody(rem, s.order)
	for _, id := range s.comps {
		s.name(id) // an unsafe comparison variable is named last
	}
	s.sortComparisons()
	return s
}

// release returns s to the pool unless a huge query grew it.
func (s *canonState) release() {
	s.q = nil
	if cap(s.buf) > 1<<16 || cap(s.stack) > 1<<16 {
		return
	}
	canonPool.Put(s)
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// number assigns the ids.
func (s *canonState) number(tmpl bool) {
	q := s.q
	s.terms = s.terms[:0]
	s.body = s.body[:0]
	s.off = s.off[:0]
	for _, a := range q.Body {
		s.off = append(s.off, int32(len(s.body)))
		for _, t := range a.Args {
			id := int32(-1)
			if t.IsVar() || tmpl {
				id = s.id(t, true)
			}
			s.body = append(s.body, id)
		}
	}
	s.off = append(s.off, int32(len(s.body)))
	s.head = s.head[:0]
	for _, t := range q.Head.Args {
		// A head constant is a placeholder only if it occurs in the body.
		s.head = append(s.head, s.id(t, t.IsVar()))
	}
	s.comps = s.comps[:0]
	for _, c := range q.Comparisons {
		for _, t := range [2]Term{c.Left, c.Right} {
			id := int32(-1)
			if t.IsVar() {
				id = s.id(t, true)
			}
			s.comps = append(s.comps, id)
		}
	}
}

// id returns t's id, giving it the next one if add is set and it has none;
// otherwise it returns -1. Queries have few variables, so this is a scan.
func (s *canonState) id(t Term, add bool) int32 {
	for i, u := range s.terms {
		if u == t {
			return int32(i)
		}
	}
	if !add {
		return -1
	}
	s.terms = append(s.terms, t)
	return int32(len(s.terms) - 1)
}

// name gives id the next canonical index unless it is a constant or named.
func (s *canonState) name(id int32) {
	if id >= 0 && s.canon[id] < 0 {
		s.canon[id] = int32(len(s.trail))
		s.trail = append(s.trail, id)
	}
}

// unname undoes every naming after the first mark ones.
func (s *canonState) unname(mark int) {
	for _, id := range s.trail[mark:] {
		s.canon[id] = -1
	}
	s.trail = s.trail[:mark]
}

func (s *canonState) atomIDs(a int32) []int32 { return s.body[s.off[a]:s.off[a+1]] }

func (s *canonState) nameAtom(a int32) {
	for _, id := range s.atomIDs(a) {
		s.name(id)
	}
}

// take returns n int32s of scratch from the stack.
func (s *canonState) take(n int) []int32 {
	if s.top+n > len(s.stack) {
		s.stack = make([]int32, max(2*len(s.stack), s.top+n, 64))
	}
	out := s.stack[s.top : s.top+n : s.top+n]
	s.top += n
	return out
}

// orderBody writes the canonical order of the atoms rem into out, naming
// their variables as it goes. It owns rem.
func (s *canonState) orderBody(rem, out []int32) {
	mark := s.top
	tied := s.take(len(rem))
	for len(rem) > 0 {
		tied = s.minKeyAtoms(rem, tied)
		if len(tied) > 1 && s.budget <= 0 {
			tied = tied[:1] // budget exhausted: greedy
		}
		if len(tied) > 1 {
			s.exploreTies(rem, tied, out)
			break
		}
		s.budget--
		i := tied[0]
		out[0] = rem[i]
		s.nameAtom(out[0])
		rem = append(rem[:i], rem[i+1:]...)
		out = out[1:]
	}
	s.top = mark
}

// exploreTies orders rem starting with each of the tied atoms in turn and
// keeps the order whose rendering is smallest, the first among equals.
func (s *canonState) exploreTies(rem, tied, out []int32) {
	rest := s.take(len(rem) - 1)
	best := s.take(len(rem))
	mark := len(s.trail)
	bestAt, bestEnd := len(s.buf), -1
	for _, i := range tied {
		s.budget--
		out[0] = rem[i]
		s.nameAtom(out[0])
		copy(rest, rem[:i])
		copy(rest[i:], rem[i+1:])
		s.orderBody(rest, out[1:])
		at := len(s.buf)
		s.buf = s.appendAtoms(s.buf, out)
		if bestEnd < 0 || bytes.Compare(s.buf[at:], s.buf[bestAt:bestEnd]) < 0 {
			copy(best, out)
			bestEnd = bestAt + copy(s.buf[bestAt:], s.buf[at:])
		}
		s.buf = s.buf[:bestEnd]
		s.unname(mark)
	}
	s.buf = s.buf[:bestAt]
	copy(out, best)
	for _, a := range out {
		s.nameAtom(a)
	}
}

// minKeyAtoms returns the positions in rem of the atoms with the minimal
// projected key, in rem's order, reusing tied's array.
func (s *canonState) minKeyAtoms(rem, tied []int32) []int32 {
	tied = tied[:0]
	minAt, minEnd := len(s.buf), 0
	for i, a := range rem {
		at := len(s.buf)
		s.buf = s.appendKey(s.buf, a)
		c := -1
		if i > 0 {
			c = bytes.Compare(s.buf[at:], s.buf[minAt:minEnd])
		}
		switch {
		case c < 0:
			minEnd = minAt + copy(s.buf[minAt:], s.buf[at:])
			tied = append(tied[:0], int32(i))
		case c == 0:
			tied = append(tied, int32(i))
		}
		s.buf = s.buf[:minEnd]
	}
	s.buf = s.buf[:minAt]
	return tied
}

// appendKey appends atom a's projected key, which compares atoms without
// depending on the original variable names: "pred/arity(...)" where a named
// variable shows as "v:" and its canonical name, an unnamed one as "u:" and
// its first-occurrence index among the atom's unnamed variables, and a
// constant as "c:" and its lexeme.
func (s *canonState) appendKey(b []byte, a int32) []byte {
	at := s.q.Body[a]
	ids := s.atomIDs(a)
	b = append(b, at.Pred...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(len(ids)), 10)
	b = append(b, '(')
	s.local = resizeInt32(s.local, len(ids))
	unnamed := int32(0)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case id < 0:
			b = append(b, "c:"...)
			b = append(b, at.Args[i].Lex...)
		case s.canon[id] >= 0:
			b = append(b, "v:V"...)
			b = strconv.AppendInt(b, int64(s.canon[id]), 10)
		default:
			j := unnamed
			for p := range i {
				if ids[p] == id {
					j = s.local[p]
					break
				}
			}
			if j == unnamed {
				unnamed++
			}
			s.local[i] = j
			b = append(b, "u:"...)
			b = strconv.AppendInt(b, int64(j), 10)
		}
	}
	return append(b, ')')
}

// appendTerm appends the rendering (Term.String) of the argument with id id
// and source term t under the current naming.
func (s *canonState) appendTerm(b []byte, id int32, t Term) []byte {
	if id < 0 {
		return appendTermString(b, t)
	}
	b = append(b, 'V')
	return strconv.AppendInt(b, int64(s.canon[id]), 10)
}

// appendTermString appends t.String().
func appendTermString(b []byte, t Term) []byte {
	if t.Kind == Constant && needsQuoting(t.Lex) {
		b = append(b, '\'')
		b = append(b, t.Lex...)
		return append(b, '\'')
	}
	return append(b, t.Lex...)
}

// appendAtoms appends the canonical atoms, joined by ", ".
func (s *canonState) appendAtoms(b []byte, atoms []int32) []byte {
	for k, a := range atoms {
		if k > 0 {
			b = append(b, ", "...)
		}
		at := s.q.Body[a]
		b = append(b, at.Pred...)
		b = append(b, '(')
		for i, id := range s.atomIDs(a) {
			if i > 0 {
				b = append(b, ',')
			}
			b = s.appendTerm(b, id, at.Args[i])
		}
		b = append(b, ')')
	}
	return b
}

// sortComparisons normalises every comparison under the final naming —
// Gt/Ge flipped to Lt/Le, the sides of Eq/Ne ordered by rendering — and
// sorts them by rendering.
func (s *canonState) sortComparisons() {
	s.sorted = s.sorted[:0]
	s.cbuf = s.cbuf[:0]
	for i, c := range s.q.Comparisons {
		cc := canonComp{l: s.comps[2*i], r: s.comps[2*i+1], lt: c.Left, rt: c.Right, op: c.Op}
		switch c.Op {
		case Gt, Ge:
			cc.l, cc.r, cc.lt, cc.rt, cc.op = cc.r, cc.l, cc.rt, cc.lt, c.Op.Flip()
		case Eq, Ne:
			at := len(s.cbuf)
			s.cbuf = s.appendTerm(s.cbuf, cc.r, cc.rt)
			mid := len(s.cbuf)
			s.cbuf = s.appendTerm(s.cbuf, cc.l, cc.lt)
			if bytes.Compare(s.cbuf[at:mid], s.cbuf[mid:]) < 0 {
				cc.l, cc.r, cc.lt, cc.rt = cc.r, cc.l, cc.rt, cc.lt
			}
			s.cbuf = s.cbuf[:at]
		}
		cc.start = int32(len(s.cbuf))
		s.cbuf = s.appendTerm(s.cbuf, cc.l, cc.lt)
		s.cbuf = append(s.cbuf, ' ')
		s.cbuf = append(s.cbuf, cc.op.String()...)
		s.cbuf = append(s.cbuf, ' ')
		s.cbuf = s.appendTerm(s.cbuf, cc.r, cc.rt)
		cc.end = int32(len(s.cbuf))
		s.sorted = append(s.sorted, cc)
	}
	// Insertion sort: comparisons are few, and equal renderings are equal
	// comparisons, so stability is moot.
	for i := 1; i < len(s.sorted); i++ {
		for j := i; j > 0 && bytes.Compare(s.render(j), s.render(j-1)) < 0; j-- {
			s.sorted[j], s.sorted[j-1] = s.sorted[j-1], s.sorted[j]
		}
	}
}

func (s *canonState) render(i int) []byte {
	c := &s.sorted[i]
	return s.cbuf[c.start:c.end]
}

// appendQuery appends the canonical query's rendering, byte for byte what
// Query.String prints for it.
func (s *canonState) appendQuery(b []byte) []byte {
	h := s.q.Head
	b = append(b, h.Pred...)
	b = append(b, '(')
	for i, id := range s.head {
		if i > 0 {
			b = append(b, ',')
		}
		b = s.appendTerm(b, id, h.Args[i])
	}
	b = append(b, ") :- "...)
	b = s.appendAtoms(b, s.order)
	for i := range s.sorted {
		if i > 0 || len(s.order) > 0 {
			b = append(b, ", "...)
		}
		b = append(b, s.render(i)...)
	}
	return append(b, '.')
}

// fill writes the canonical query into out: one array holds every
// argument.
func (s *canonState) fill(out *Query) {
	q := s.q
	terms := make([]Term, len(s.head)+len(s.body))
	term := func(id int32, t Term) Term {
		if id < 0 {
			return t
		}
		return Term{Kind: Variable, Lex: canonVarName(int(s.canon[id]))}
	}
	head := Atom{Pred: q.Head.Pred, Args: terms[:len(s.head):len(s.head)]}
	for i, id := range s.head {
		head.Args[i] = term(id, q.Head.Args[i])
	}
	terms = terms[len(s.head):]
	var body []Atom
	if len(s.order) > 0 {
		body = make([]Atom, len(s.order))
	}
	for k, a := range s.order {
		src := q.Body[a]
		ids := s.atomIDs(a)
		args := terms[:len(ids):len(ids)]
		terms = terms[len(ids):]
		for i, id := range ids {
			args[i] = term(id, src.Args[i])
		}
		body[k] = Atom{Pred: src.Pred, Args: args}
	}
	comps := make([]Comparison, len(s.sorted))
	for i, c := range s.sorted {
		comps[i] = Comparison{Left: term(c.l, c.lt), Op: c.op, Right: term(c.r, c.rt)}
	}
	*out = Query{Head: head, Body: body, Comparisons: comps}
}
