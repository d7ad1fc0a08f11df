package integration

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestConcurrentPlansMatchFresh checks that no pooled state reaches a plan:
// the containment searches and the compile scratch that plan misses share
// through pools. One engine plans every adhoc golden template from 4
// goroutines, each in an order of its own; afterwards every cached plan
// must describe, byte for byte, like the plan a fresh engine builds for
// that template alone on one goroutine. CI's race step runs it under the
// race detector.
func TestConcurrentPlansMatchFresh(t *testing.T) {
	c := goldenCases()[0]
	base := goldenBase(c)
	shared, err := engine.NewFromBase(base, c.views, engine.Options{Strategy: engine.Auto, CacheSize: 2 * len(c.templates)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(c.templates)) {
				if _, err := shared.Prepare(c.templates[i]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	before := shared.Stats()
	if before.Evictions != 0 {
		t.Fatalf("%d evictions: every plan must stay cached", before.Evictions)
	}
	for _, q := range c.templates {
		fresh, err := engine.NewFromBase(base, c.views, engine.Options{Strategy: engine.Auto})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := shared.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := describePlan(got), describePlan(want); g != w {
			t.Errorf("template %s: the concurrently built plan\n%s\ndiffers from a fresh engine's\n%s", q, g, w)
		}
	}
	if after := shared.Stats(); after.Misses != before.Misses {
		t.Fatalf("%d more misses: the plans compared were not the cached ones", after.Misses-before.Misses)
	}
}

// describePlan renders everything a cached plan holds: its kind and
// strategy, its rewriting or union, and each compiled member's Describe
// with its full physical form.
func describePlan(p *engine.Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind=%s chosen=%s params=%v arity=%d estimate=%+v\n", p.Kind, p.Chosen, p.Params, p.Arity, p.Estimate)
	if p.Rewriting != nil {
		fmt.Fprintf(&sb, "%s\n%s\n", p.Rewriting.Query, p.Rewriting.Expansion)
	}
	if p.Union != nil {
		fmt.Fprintf(&sb, "%s\n", p.Union)
	}
	if p.Compiled != nil {
		fmt.Fprintf(&sb, "%s%+v\n", p.Compiled.Describe(), p.Compiled)
	}
	for _, cp := range p.CompiledUnion {
		fmt.Fprintf(&sb, "%s%+v\n", cp.Describe(), cp)
	}
	return sb.String()
}
