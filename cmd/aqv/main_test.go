package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func capture(t *testing.T, args []string) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run(args, tmp); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRunEquivalent(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X,Y) :- r(X,Z), s(Z,Y).")
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,C), s(C,B).")
	out := capture(t, []string{"-query", qf, "-views", vf, "-stats"})
	if !strings.Contains(out, "q(X,Y) :- v(X,Y).") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "applications=") {
		t.Fatalf("stats missing:\n%s", out)
	}
}

func TestRunEquivalentWithData(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X,Y) :- r(X,Z), s(Z,Y).")
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,C), s(C,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m,x).")
	out := capture(t, []string{"-query", qf, "-views", vf, "-data", df})
	if !strings.Contains(out, "q(a,x).") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunExplain(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X,Y) :- r(X,Z), s(Z,Y).")
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,C), s(C,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m,x).")
	out := capture(t, []string{"-query", qf, "-views", vf, "-data", df, "-explain"})
	if !strings.Contains(out, "plan:") || !strings.Contains(out, "component 0") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunNoRewriting(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X,Y) :- r(X,Z), s(Z,Y).")
	vf := writeFile(t, dir, "v.dl", "v(A) :- r(A,C).")
	out := capture(t, []string{"-query", qf, "-views", vf})
	if !strings.Contains(out, "no equivalent rewriting") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunMiniConAndBucket(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X) :- r(X,Z), s(Z).")
	vf := writeFile(t, dir, "v.dl", "v1(A,B) :- r(A,B). v2(A) :- s(A).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m).")
	for _, algo := range []string{"minicon", "bucket"} {
		out := capture(t, []string{"-query", qf, "-views", vf, "-data", df, "-algo", algo, "-stats"})
		if !strings.Contains(out, "q(a).") {
			t.Fatalf("%s output:\n%s", algo, out)
		}
	}
}

func TestRunInverse(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X) :- r(X,Z).")
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m).")
	out := capture(t, []string{"-query", qf, "-views", vf, "-data", df, "-algo", "inverse"})
	if !strings.Contains(out, "r(A,B) :- v(A,B).") || !strings.Contains(out, "q(a).") {
		t.Fatalf("output:\n%s", out)
	}
	// Only a Skolem value stands for the hidden Y: the comparison is refused.
	hf := writeFile(t, dir, "h.dl", "v(A) :- r(A,B).")
	cf := writeFile(t, dir, "c.dl", "q(X) :- r(X,Y), Y > 5.")
	if err := run([]string{"-query", cf, "-views", hf, "-data", df, "-algo", "inverse"}, os.Stdout); err == nil || !strings.Contains(err.Error(), "Skolem") {
		t.Fatalf("comparison on a hidden column: err = %v, want it refused", err)
	}
}

func TestRunPartial(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X,Y) :- r(X,Z), s(Z,Y).")
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,B).")
	out := capture(t, []string{"-query", qf, "-views", vf, "-partial"})
	if !strings.Contains(out, "partial") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunBatch(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,C), s(C,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m,x).")
	// Three queries: the second is an α-variant of the first and must be
	// served from the plan cache.
	qf := writeFile(t, dir, "qs.dl", `
		q(X,Y) :- r(X,Z), s(Z,Y).
		q(A,B) :- s(C,B), r(A,C).
		q2(X) :- r(X,Y).
	`)
	out := capture(t, []string{"-queries", qf, "-views", vf, "-data", df, "-stats"})
	if !strings.Contains(out, "q(a,x).") {
		t.Fatalf("missing answers:\n%s", out)
	}
	if !strings.Contains(out, "hits=1") || !strings.Contains(out, "misses=2") {
		t.Fatalf("engine stats wrong (want hits=1 misses=2):\n%s", out)
	}
	if !strings.Contains(out, "plan (equivalent): q(V0,V1) :- v(V0,V1).") {
		t.Fatalf("missing cached plan line:\n%s", out)
	}
}

// TestRunBatchPreparedTemplates: a stream of point lookups differing only
// in constants is planned once; -prepare reports the shared template.
func TestRunBatchPreparedTemplates(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,C), s(C,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). r(b,n). s(m,x). s(n,y).")
	qf := writeFile(t, dir, "qs.dl", `
		q(Y) :- r(a,Z), s(Z,Y).
		q(Y) :- r(b,Z), s(Z,Y).
		q(Y) :- r(c,Z), s(Z,Y).
	`)
	out := capture(t, []string{"-queries", qf, "-views", vf, "-data", df, "-prepare", "-stats"})
	if !strings.Contains(out, "q(x).") || !strings.Contains(out, "q(y).") {
		t.Fatalf("answers missing:\n%s", out)
	}
	if !strings.Contains(out, "params=1 args=[a]") || !strings.Contains(out, "params=1 args=[c]") {
		t.Fatalf("prepared report missing:\n%s", out)
	}
	// One template, three queries: 1 miss, 2 hits.
	if !strings.Contains(out, "hits=2") || !strings.Contains(out, "misses=1") {
		t.Fatalf("template cache stats wrong (want hits=2 misses=1):\n%s", out)
	}
}

func TestRunAuto(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X,Y) :- r(X,Z), s(Z,Y).")
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,C), s(C,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m,x).")
	out := capture(t, []string{"-query", qf, "-views", vf, "-data", df, "-algo", "auto"})
	if !strings.Contains(out, "auto chose equivalent-first") {
		t.Fatalf("auto choice not reported:\n%s", out)
	}
	if !strings.Contains(out, "q(a,x).") {
		t.Fatalf("answers missing:\n%s", out)
	}
	// Batch mode accepts the strategy too.
	qs := writeFile(t, dir, "qs.dl", "q(X,Y) :- r(X,Z), s(Z,Y).")
	out = capture(t, []string{"-queries", qs, "-views", vf, "-data", df, "-algo", "auto", "-stats"})
	if !strings.Contains(out, "strategy=equivalent-first plans=1") {
		t.Fatalf("auto per-strategy attribution missing:\n%s", out)
	}
}

func TestRunBatchPlansOnlyWithoutData(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v1(A,B) :- r(A,B). v2(A) :- s(A).")
	qf := writeFile(t, dir, "qs.dl", "q(X) :- r(X,Z), s(Z).")
	out := capture(t, []string{"-queries", qf, "-views", vf, "-algo", "minicon"})
	if !strings.Contains(out, "plan (max-contained)") {
		t.Fatalf("missing plan:\n%s", out)
	}
	if strings.Contains(out, "answer(s)") {
		t.Fatalf("answers printed without data:\n%s", out)
	}
}

func TestRunBatchFlagErrors(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v(A) :- r(A).")
	qf := writeFile(t, dir, "q.dl", "q(X) :- r(X).")
	if err := run([]string{"-query", qf, "-queries", qf, "-views", vf}, os.Stdout); err == nil {
		t.Fatal("mutually exclusive flags accepted")
	}
	empty := writeFile(t, dir, "empty.dl", "% nothing here\n")
	if err := run([]string{"-queries", empty, "-views", vf}, os.Stdout); err == nil {
		t.Fatal("empty query stream accepted")
	}
}

// TestRunBadFlag: removed flags must be rejected as undefined, not ignored —
// -shards went with the hash-partitioned layout, and durability, admission,
// budgets and worker counts belong to aqvd.
func TestRunBadFlag(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v(A) :- r(A).")
	qf := writeFile(t, dir, "q.dl", "q(X) :- r(X).")
	for _, args := range [][]string{
		{"-nope"},
		{"-queries", qf, "-views", vf, "-shards", "4"},
		{"-query", qf, "-views", vf, "-datadir", dir},
		{"-query", qf, "-views", vf, "-cache", "8"},
		{"-query", qf, "-views", vf, "-workers", "2"},
		{"-query", qf, "-views", vf, "-timeout", "1s"},
		{"-query", qf, "-views", vf, "-max-derived", "10"},
		{"-query", qf, "-views", vf, "-max-concurrent", "2"},
	} {
		err := run(args, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("run(%v) = %v, want an undefined-flag error", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X) :- r(X).")
	vf := writeFile(t, dir, "v.dl", "v(A) :- r(A).")
	bad := writeFile(t, dir, "bad.dl", "not valid ((")
	rules := writeFile(t, dir, "rules.dl", "p(X) :- r(X).")
	cases := [][]string{
		{},
		{"-query", qf},
		{"-query", filepath.Join(dir, "missing.dl"), "-views", vf},
		{"-query", bad, "-views", vf},
		{"-query", qf, "-views", bad},
		{"-query", qf, "-views", vf, "-algo", "nope"},
		{"-query", qf, "-views", vf, "-data", rules},
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, args := range cases {
		if err := run(args, devnull); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunInverseExplainAndStats(t *testing.T) {
	dir := t.TempDir()
	qf := writeFile(t, dir, "q.dl", "q(X,Y) :- r(X,Z), s(Z,Y).")
	vf := writeFile(t, dir, "v.dl", "vr(A,B) :- r(A,B).\nvs(A,B) :- s(A,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m,x).")
	out := capture(t, []string{"-query", qf, "-views", vf, "-data", df, "-algo", "inverse", "-explain", "-stats"})
	// The inverse rules are stratum 0; the query rule reads them and is
	// stratum 1.
	for _, want := range []string{"compiled program:", "(stratum 0): r(A,B) :- vr(A,B).", "(stratum 1): q(X,Y) :- r(X,Z), s(Z,Y).", "full"} {
		if !strings.Contains(out, want) {
			t.Fatalf("compiled program plan missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "fixpoint: iterations=") {
		t.Fatalf("fixpoint stats missing:\n%s", out)
	}
	if !strings.Contains(out, "q(a,x).") {
		t.Fatalf("answers missing:\n%s", out)
	}
	// Without data, -explain still describes the compiled program.
	out = capture(t, []string{"-query", qf, "-views", vf, "-algo", "inverse", "-explain"})
	if !strings.Contains(out, "compiled program:") {
		t.Fatalf("planless explain missing:\n%s", out)
	}
}

func TestRunBatchInverseFixpointStats(t *testing.T) {
	dir := t.TempDir()
	qs := writeFile(t, dir, "qs.dl", "q(X,Y) :- r(X,Z), s(Z,Y).\nq(A,B) :- r(A,C), s(C,B).")
	vf := writeFile(t, dir, "v.dl", "vr(A,B) :- r(A,B).\nvs(A,B) :- s(A,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m,x).")
	out := capture(t, []string{"-queries", qs, "-views", vf, "-data", df, "-algo", "inverse", "-stats"})
	if !strings.Contains(out, "fixpoints=2") {
		t.Fatalf("engine fixpoint counters missing:\n%s", out)
	}
	if !strings.Contains(out, "hits=1") {
		t.Fatalf("second query should hit the plan cache:\n%s", out)
	}
}

// TestRunStream drives the live update-stream mode: inserts interleaved
// with queries, each query seeing all updates that precede it.
func TestRunStream(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,C), s(C,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m,x).")
	sf := writeFile(t, dir, "stream.dl", `
		q(X,Y) :- r(X,Z), s(Z,Y).
		% a batch of inserts, then the same query again
		r(b,n).
		s(n,y).
		q(X,Y) :- r(X,Z), s(Z,Y).
		r(c,m).
	`)
	out := capture(t, []string{"-stream", sf, "-views", vf, "-data", df, "-stats"})
	// First query: one answer; second query: two (the batch joined b→y).
	if !strings.Contains(out, "% 1 answer(s):") || !strings.Contains(out, "% 2 answer(s):") {
		t.Fatalf("answer counts wrong:\n%s", out)
	}
	if !strings.Contains(out, "q(b,y).") {
		t.Fatalf("maintained answer missing:\n%s", out)
	}
	// The batch line reports inserts and derived extent tuples.
	if !strings.Contains(out, "2 insert(s) (2 new), 0 delete(s) (0 present), +1/-0 extent tuple(s)") {
		t.Fatalf("batch report missing:\n%s", out)
	}
	// The trailing fact is applied after the last query (batch 2 derives
	// v(c,x)), and the repeated query hit the plan cache.
	if !strings.Contains(out, "update_batches=2") {
		t.Fatalf("update counters missing:\n%s", out)
	}
	if !strings.Contains(out, "hits=1") || !strings.Contains(out, "misses=1") {
		t.Fatalf("plan cache stats wrong (want hits=1 misses=1):\n%s", out)
	}
	if !strings.Contains(out, "delta_derived=2") {
		t.Fatalf("delta_derived wrong (want 2: v(b,y) and v(c,x)):\n%s", out)
	}
}

// TestRunStreamDeletes drives delete and update lines through the live
// stream: a "-" line retracts facts, and a "-" line plus a plain line in
// one batch is an update — all applied atomically before the next query.
func TestRunStreamDeletes(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,C), s(C,B).")
	df := writeFile(t, dir, "d.dl", "r(a,m). s(m,x). r(b,n). s(n,y).")
	sf := writeFile(t, dir, "stream.dl", `
		q(X,Y) :- r(X,Z), s(Z,Y).
		% retract one derivation...
		- r(a,m).
		q(X,Y) :- r(X,Z), s(Z,Y).
		% ...and an update: move b from n to m
		- r(b,n).
		r(b,m).
		q(X,Y) :- r(X,Z), s(Z,Y).
	`)
	out := capture(t, []string{"-stream", sf, "-views", vf, "-data", df, "-stats"})
	if !strings.Contains(out, "% 2 answer(s):") || !strings.Contains(out, "% 1 answer(s):") {
		t.Fatalf("answer counts wrong:\n%s", out)
	}
	if !strings.Contains(out, "q(b,x).") {
		t.Fatalf("updated answer missing:\n%s", out)
	}
	if strings.Contains(out, "q(a,x).\n% [4]") || !strings.Contains(out, "1 delete(s) (1 present)") {
		t.Fatalf("delete batch report missing:\n%s", out)
	}
	if !strings.Contains(out, "update_deleted=2") || !strings.Contains(out, "delta_retracted=2") {
		t.Fatalf("delete counters missing:\n%s", out)
	}

	// Deleting a query is rejected.
	bad := writeFile(t, dir, "bad.dl", "- q(X) :- r(X,Y).")
	if err := run([]string{"-stream", bad, "-views", vf}, os.Stdout); err == nil {
		t.Fatal("negated query accepted")
	}
}

// TestRunStreamErrors: inserting into a view extent fails, as does a
// malformed statement, and -stream excludes the other modes.
func TestRunStreamErrors(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,B).")
	qf := writeFile(t, dir, "q.dl", "q(X) :- r(X,Y).")
	bad := writeFile(t, dir, "bad.dl", "v(a,b).\nq(X) :- r(X,Y).")
	if err := run([]string{"-stream", bad, "-views", vf}, os.Stdout); err == nil {
		t.Fatal("insert into view extent accepted")
	}
	malformed := writeFile(t, dir, "mal.dl", "not a statement ((")
	if err := run([]string{"-stream", malformed, "-views", vf}, os.Stdout); err == nil {
		t.Fatal("malformed stream accepted")
	}
	if err := run([]string{"-stream", bad, "-query", qf, "-views", vf}, os.Stdout); err == nil {
		t.Fatal("-stream with -query accepted")
	}
}

func TestRunStreamRejectsMixedLine(t *testing.T) {
	dir := t.TempDir()
	vf := writeFile(t, dir, "v.dl", "v(A,B) :- r(A,B).")
	mixed := writeFile(t, dir, "mixed.dl", "q(X) :- r(X,Y). r(a,b).")
	if err := run([]string{"-stream", mixed, "-views", vf}, os.Stdout); err == nil ||
		!strings.Contains(err.Error(), "own line") {
		t.Fatalf("mixed fact/query line: err = %v, want rejection", err)
	}
}
