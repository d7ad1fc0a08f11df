package cq

import "strconv"

// Query templates. A template is the canonical form of a query with its
// constants abstracted to placeholders, so that a stream of point lookups
// differing only in the constants they select on — q(X) :- r(X,'a'),
// q(X) :- r(X,'b'), ... — shares one template, and therefore one cached
// plan. The placeholders are ordinary canonical variables; Template.Params
// records which ones they are and Template.Args the source query's
// constants in the same order, the binding that re-instantiates it.
//
// Abstraction rules:
//
//   - only constants that occur in at least one relational body atom are
//     abstracted; when one is, every head and body occurrence of that
//     constant becomes the same placeholder, preserving the equality
//     pattern among constant positions (two queries whose constants are
//     equal at different position sets get different templates, as they
//     must);
//   - comparison occurrences always stay concrete, even of abstracted
//     constants: comparison thresholds change which rewritings are
//     equivalent (a ground comparison like 5 > 3 is decidable at plan
//     time; its abstraction V0 > 3 is not), so they are part of the
//     template's identity. Instantiation stays exact — the concrete
//     comparison is the one every sharing query carries verbatim;
//   - constants occurring only in the head, or only in comparisons, stay
//     concrete: abstracting the former would make the template unsafe (a
//     placeholder with no relational occurrence cannot be planned or
//     bound), and the latter is the threshold rule above.
//
// A query without body constants is its own template (no placeholders), so
// template fingerprints strictly generalise the α-equivalence fingerprints:
// plans cached per template subsume the old per-fingerprint cache.

// Template is a parameterized query template: the canonical query with
// abstracted constants replaced by placeholder variables.
type Template struct {
	// Query is the canonical template. Placeholders are ordinary canonical
	// variables (V<i>); the head keeps its original shape.
	Query *Query
	// Params lists the canonical names of the placeholder variables in
	// binding order (ascending canonical index). Empty when the source
	// query has no body constants.
	Params []string
	// Args holds the source query's constants in Params order — the
	// binding under which Query instantiates back to (an α-variant of)
	// the source query.
	Args []string
	// fp caches the key when the canonicaliser made the template.
	fp string
}

// CanonicalizeTemplate abstracts q's constants to placeholders and returns
// the canonical template together with the binding that reproduces q. Two
// queries that differ only in variable names, subgoal order and/or the
// values of their body constants share the same template (and fingerprint);
// their Args differ.
func CanonicalizeTemplate(q *Query) *Template {
	s := canonicalise(q, true)
	defer s.release()
	t := &Template{Query: s.query()}
	// Binding order: ascending canonical variable index, which is the order
	// of the naming trail. The canonical form is α-invariant, so every
	// α-variant of every instantiation of the template derives the same
	// order.
	n := 0
	for _, id := range s.trail {
		if s.placeholder(id) {
			n++
		}
	}
	if n > 0 {
		names := make([]string, 0, 2*n)
		for k, id := range s.trail {
			if s.placeholder(id) {
				names = append(names, canonVarName(k))
			}
		}
		for _, id := range s.trail {
			if s.placeholder(id) {
				names = append(names, s.terms[id].Lex)
			}
		}
		t.Params, t.Args = names[:n:n], names[n:]
	}
	t.fp = s.templateKey()
	return t
}

// ConcreteTemplate returns the template of q with every constant kept
// concrete: q's canonical form, no placeholders. Its key is the one a
// Template{Query: Canonicalize(q)} reports, computed without rendering.
func ConcreteTemplate(q *Query) *Template {
	s := canonicalise(q, false)
	defer s.release()
	return &Template{Query: s.query(), fp: s.templateKey()}
}

// placeholder reports whether id stands for an abstracted constant.
func (s *canonState) placeholder(id int32) bool { return s.terms[id].IsConst() }

// templateKey is the key of the template s canonicalised: the canonical
// bytes, a NUL byte and the placeholders' names in binding order joined by
// commas, hashed.
func (s *canonState) templateKey() string {
	b := append(s.appendQuery(s.buf[:0]), 0)
	sep := false
	for k, id := range s.trail {
		if s.placeholder(id) {
			if sep {
				b = append(b, ',')
			}
			sep = true
			b = append(b, 'V')
			b = strconv.AppendInt(b, int64(k), 10)
		}
	}
	s.buf = b
	return hexKey(b)
}

// Fingerprint returns the template's cache key: queries sharing a template
// share the key. The placeholder set is part of the identity — a query
// selecting on a constant and one joining a plain variable in the same
// position canonicalise to the same query text but are different templates.
// The key hashes the canonical query text, a NUL byte and the placeholder
// names joined by commas; it names client-held prepared handles, so those
// bytes never change.
func (t *Template) Fingerprint() string {
	if t.fp != "" {
		return t.fp
	}
	b := append([]byte(t.Query.String()), 0)
	for i, p := range t.Params {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	return hexKey(b)
}

// NumParams returns the number of placeholders.
func (t *Template) NumParams() int { return len(t.Params) }

// PlanQuery returns the query a planner should rewrite: the template with
// its placeholders appended to the head as extra distinguished variables.
// Distinguishing them forces every rewriting to expose the parameter
// positions, so a cached plan can filter on any binding at execution time;
// callers compile the resulting rewriting back at the original arity with
// the placeholders as parameter slots. Without placeholders it returns the
// template query itself.
func (t *Template) PlanQuery() *Query {
	if len(t.Params) == 0 {
		return t.Query
	}
	pq := t.Query.Clone()
	for _, p := range t.Params {
		pq.Head.Args = append(pq.Head.Args, Var(p))
	}
	return pq
}

// TemplateFingerprint returns the template cache key of q directly:
// CanonicalizeTemplate(q).Fingerprint(), without building the template.
func TemplateFingerprint(q *Query) string {
	s := canonicalise(q, true)
	defer s.release()
	return s.templateKey()
}
