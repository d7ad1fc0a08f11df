//go:build race

package engine

// The race detector makes sync.Pool drop a share of what is put into it and
// instruments every allocation, so allocation counts and heap footprints
// mean nothing under it.
func init() { raceEnabled = true }
