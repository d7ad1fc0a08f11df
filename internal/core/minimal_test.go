package core

import "testing"

func TestMinimizeRewriting(t *testing.T) {
	vs := views("v1(A,B) :- r(A,B)", "v2(A,B) :- r(A,B), t(A)")
	q := mustQ("q(X,Y) :- r(X,Y)")
	// A redundant rewriting using both views.
	redundant := mustQ("q(X,Y) :- v1(X,Y), v1(X,W)")
	ok, err := VerifyRewriting(q, redundant, vs)
	if err != nil || !ok {
		t.Fatalf("redundant candidate should verify: %v %v", ok, err)
	}
	if LocallyMinimal(q, redundant, vs) {
		t.Fatal("redundant rewriting reported locally minimal")
	}
	min := MinimizeRewriting(q, redundant, vs)
	if len(min.Body) != 1 {
		t.Fatalf("minimised = %v", min)
	}
	if ok, _ := VerifyRewriting(q, min, vs); !ok {
		t.Fatal("minimised rewriting no longer verifies")
	}
	if !LocallyMinimal(q, min, vs) {
		t.Fatal("minimised rewriting not locally minimal")
	}
}

func TestGloballyMinimal(t *testing.T) {
	vs := views(
		"big(A,B) :- e(A,M), e(M,B)",
		"one(A,B) :- e(A,B)",
	)
	r := NewRewriter(vs)
	r.Opt.MaxResults = AllRewritings
	q := mustQ("q(X,Y) :- e(X,M), e(M,Y)")
	res, _ := r.Rewrite(q)
	min := GloballyMinimal(res)
	if len(min) == 0 {
		t.Fatal("no globally minimal rewriting")
	}
	for _, rw := range min {
		if len(rw.Query.Body) != 1 {
			t.Fatalf("globally minimal should use the packed view: %v", rw.Query)
		}
	}
	if GloballyMinimal(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestBestShortening(t *testing.T) {
	// Views pack three subgoals into one atom: shortening 3 -> 1.
	vs := views("v(A,B) :- p1(A,M), p2(M,N), p3(N,B)")
	q := mustQ("q(X,Y) :- p1(X,M), p2(M,N), p3(N,Y)")
	s := BestShortening(q, vs)
	if !s.Found || s.QuerySubgoals != 3 || s.RewritingSubgoals != 1 {
		t.Fatalf("shortening = %+v", s)
	}
	// No views: nothing found.
	empty, _ := NewViewSet()
	s2 := BestShortening(q, empty)
	if s2.Found {
		t.Fatalf("shortening with no views = %+v", s2)
	}
}

func TestBestShorteningPartial(t *testing.T) {
	// Views cover two of three subgoals: partial rewriting shortens 3 -> 2.
	vs := views("v(A,B) :- p1(A,M), p2(M,B)")
	q := mustQ("q(X,Y) :- p1(X,M), p2(M,N), p3(N,Y)")
	s := BestShortening(q, vs)
	if !s.Found || s.RewritingSubgoals != 2 {
		t.Fatalf("shortening = %+v", s)
	}
}
