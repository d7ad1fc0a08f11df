package integration

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestRecoveredDurablePlansMatchFresh: a durable engine recovered from its
// snapshot plans every golden template exactly as the fresh engine that
// wrote the snapshot — same plan kind, same chosen strategy, same estimate —
// under every strategy, with and without AllowPartial. Both engines build
// their planning statistics over the relations they serve, so a restart
// never changes a plan.
func TestRecoveredDurablePlansMatchFresh(t *testing.T) {
	for _, c := range goldenCases() {
		base := goldenBase(c)
		for _, s := range engine.Strategies() {
			for _, partial := range []bool{false, true} {
				opt := engine.Options{Strategy: s, AllowPartial: partial, DataDir: t.TempDir(), WALNoSync: true}
				var plans [2][]*engine.Plan // fresh, recovered
				for boot := range plans {
					e, err := engine.NewFromBase(base, c.views, opt)
					if err != nil {
						t.Fatalf("%s/%s partial=%v boot %d: %v", c.name, s, partial, boot, err)
					}
					if boot == 1 && e.Stats().Durable.RecoveredTuples == 0 {
						t.Fatalf("%s/%s partial=%v: second boot did not recover the snapshot", c.name, s, partial)
					}
					for i, q := range c.templates {
						p, err := e.Plan(q)
						if err != nil {
							t.Fatalf("%s/%s partial=%v boot %d template %d: %v", c.name, s, partial, boot, i, err)
						}
						plans[boot] = append(plans[boot], p)
					}
					if err := e.Close(); err != nil {
						t.Fatalf("%s/%s partial=%v boot %d: close: %v", c.name, s, partial, boot, err)
					}
				}
				for i, q := range c.templates {
					f, r := plans[0][i], plans[1][i]
					if f.Kind != r.Kind || f.Chosen != r.Chosen || !reflect.DeepEqual(f.Estimate, r.Estimate) {
						t.Fatalf("%s/%s partial=%v template %d %s: fresh plans %s/%s %+v, recovered %s/%s %+v",
							c.name, s, partial, i, q, f.Kind, f.Chosen, f.Estimate, r.Kind, r.Chosen, r.Estimate)
					}
				}
			}
		}
	}
}

// TestRecoveredPlansIgnoreStoredStatistics: a snapshot whose manifest
// carries per-relation "distinct" arrays — as manifests did while the
// engine persisted its planning statistics — still boots, and the
// recovered engine plans every golden template as the fresh one did. The
// arrays written are all ones, so an engine that planned with them would
// cost every bound column as unselective.
func TestRecoveredPlansIgnoreStoredStatistics(t *testing.T) {
	for _, c := range goldenCases() {
		base := goldenBase(c)
		for _, partial := range []bool{false, true} {
			opt := engine.Options{Strategy: engine.Auto, AllowPartial: partial, DataDir: t.TempDir(), WALNoSync: true}
			var plans [2][]*engine.Plan // fresh, recovered
			for boot := range plans {
				if boot == 1 {
					addDistinctArrays(t, opt.DataDir)
				}
				e, err := engine.NewFromBase(base, c.views, opt)
				if err != nil {
					t.Fatalf("%s partial=%v boot %d: %v", c.name, partial, boot, err)
				}
				if boot == 1 && e.Stats().Durable.RecoveredTuples == 0 {
					t.Fatalf("%s partial=%v: second boot did not recover the snapshot", c.name, partial)
				}
				for i, q := range c.templates {
					p, err := e.Plan(q)
					if err != nil {
						t.Fatalf("%s partial=%v boot %d template %d: %v", c.name, partial, boot, i, err)
					}
					plans[boot] = append(plans[boot], p)
				}
				if err := e.Close(); err != nil {
					t.Fatalf("%s partial=%v boot %d: close: %v", c.name, partial, boot, err)
				}
			}
			for i, q := range c.templates {
				f, r := plans[0][i], plans[1][i]
				if f.Kind != r.Kind || f.Chosen != r.Chosen || !reflect.DeepEqual(f.Estimate, r.Estimate) {
					t.Fatalf("%s partial=%v template %d %s: fresh plans %s/%s %+v, recovered %s/%s %+v",
						c.name, partial, i, q, f.Kind, f.Chosen, f.Estimate, r.Kind, r.Chosen, r.Estimate)
				}
			}
		}
	}
}

// addDistinctArrays rewrites the current snapshot's manifest in dir so that
// every relation carries a "distinct" array of ones, one per column. The
// manifest has no checksum, so the edit is all it takes.
func addDistinctArrays(t *testing.T, dir string) {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.TrimSpace(string(cur)), "MANIFEST.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	rels, _ := man["relations"].([]any)
	if len(rels) == 0 {
		t.Fatalf("manifest %s lists no relations", path)
	}
	for _, r := range rels {
		rel := r.(map[string]any)
		ones := make([]float64, int(rel["arity"].(float64)))
		for i := range ones {
			ones[i] = 1
		}
		rel["distinct"] = ones
	}
	if data, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
