//go:build race

package cq

// The allocation budgets skip under the race detector, which instruments
// allocations and makes sync.Pool drop pooled scratch at random.
func init() { raceEnabled = true }
