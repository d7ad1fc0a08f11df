//go:build race

package storage

// The race detector's instrumentation allocates, so allocation counts mean
// nothing under it.
func init() { raceEnabled = true }
