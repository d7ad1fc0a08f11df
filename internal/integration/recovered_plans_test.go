package integration

import (
	"reflect"
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
