// Package certain computes certain answers of a query over materialised
// view extents and compares them against direct evaluation — the semantic
// yardstick for maximally-contained rewritings (experiment F5).
//
// Under the open-world assumption with sound views (the view extents are
// exactly the views applied to some unknown database), the certain answers
// of a conjunctive query equal the answers of its maximally-contained
// rewriting evaluated over the extents (Abiteboul & Duschka). The package
// offers that route via MiniCon and, independently, via inverse rules, so
// the two can cross-check each other.
package certain

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/datalog"
	"repro/internal/inverserules"
	"repro/internal/minicon"
	"repro/internal/storage"
)

// ViaMiniCon computes the certain answers of q from the view extents in
// viewDB by evaluating the MiniCon maximally-contained rewriting.
func ViaMiniCon(q *cq.Query, views []*cq.Query, viewDB *storage.Database) ([]storage.Tuple, error) {
	vs, err := core.NewViewSet(views...)
	if err != nil {
		return nil, err
	}
	// Verified as the F-experiments and external callers run MiniCon, not
	// because comparison-free MCDs need it.
	u, _, err := minicon.Rewrite(q, vs, minicon.Options{VerifyCandidates: true})
	if err != nil {
		return nil, err
	}
	return datalog.EvalUnion(viewDB, u), nil
}

// ViaInverseRules computes the certain answers of q from the view extents
// using the inverse-rules program.
func ViaInverseRules(q *cq.Query, views []*cq.Query, viewDB *storage.Database) ([]storage.Tuple, error) {
	return inverserules.Answer(q, views, viewDB)
}

// Report summarises one certain-answer experiment.
type Report struct {
	Direct        int // |q(D)| over the base database
	CertainMC     int // via MiniCon MCR
	CertainIR     int // via inverse rules
	MethodsAgree  bool
	SoundMC       bool // certain(MC) ⊆ direct
	SoundIR       bool // certain(IR) ⊆ direct
	ExactRecovery bool // certain == direct
}

// Compare materialises the views over base, computes certain answers by
// both methods, and checks the semantic invariants: both methods agree and
// are sound with respect to direct evaluation.
func Compare(q *cq.Query, views []*cq.Query, base *storage.Database) (Report, error) {
	var rep Report
	viewDB, err := datalog.MaterializeViews(base, views)
	if err != nil {
		return rep, err
	}
	direct := datalog.EvalQuery(base, q)
	mc, err := ViaMiniCon(q, views, viewDB)
	if err != nil {
		return rep, fmt.Errorf("certain: minicon route: %w", err)
	}
	ir, err := ViaInverseRules(q, views, viewDB)
	if err != nil {
		return rep, fmt.Errorf("certain: inverse-rules route: %w", err)
	}
	rep.Direct = len(direct)
	rep.CertainMC = len(mc)
	rep.CertainIR = len(ir)
	rep.MethodsAgree = storage.TuplesEqual(mc, ir)
	rep.SoundMC = subset(mc, direct)
	rep.SoundIR = subset(ir, direct)
	rep.ExactRecovery = storage.TuplesEqual(mc, direct)
	return rep, nil
}

// subset reports whether every tuple of a is in b. Membership is decided
// by comparing columns, so tuples whose keys coincide (Tuple.Key) stay
// apart: a tuple of a that the set of b's tuples takes as new is missing.
func subset(a, b []storage.Tuple) bool {
	var in datalog.RowSet
	for _, t := range b {
		in.Add(t)
	}
	for _, t := range a {
		if in.Add(t) {
			return false
		}
	}
	return true
}
