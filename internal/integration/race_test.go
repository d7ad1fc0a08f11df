//go:build race

package integration

// The allocation guard skips under the race detector, which instruments
// allocations.
func init() { raceEnabled = true }
