package minicon

import (
	"fmt"
	"testing"
)

// TestEnumerationIsDeterministic: the MCDs, and with them the members of the
// union and which of two equivalent members survives its minimisation, must
// come out in one order — a cached plan may depend only on the template. The
// closure used to pick the next obligation by ranging over a map, so on a
// view like this one, with several existentials unresolved at once,
// identical calls returned the MCDs in dozens of different orders.
func TestEnumerationIsDeterministic(t *testing.T) {
	q := mustQ("q(X) :- r(X,Y), s(Y,Z), t(Z,W), r(W,U), s(U,T)")
	vs := viewSet(
		"v(A) :- r(A,B), s(B,C), t(C,D), r(D,E), s(E,F)",
		"w(A,C) :- r(A,B), s(B,C)",
		"x(C,D) :- t(C,D)",
		"y(A,B,C) :- r(A,B), s(B,C), s(B,D)",
	)
	render := func() string {
		out := fmt.Sprintln(formMCDs(q, vs))
		for _, opt := range []Options{{}, {SkipMinimizeUnion: true}, {VerifyCandidates: true}} {
			u, st, err := Rewrite(q, vs, opt)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%+v %+v\n%s\n", opt, st, u)
		}
		return out
	}
	want := render()
	for i := 0; i < 200; i++ {
		if got := render(); got != want {
			t.Fatalf("call %d differs:\n%s\nfirst call:\n%s", i+2, got, want)
		}
	}
}
