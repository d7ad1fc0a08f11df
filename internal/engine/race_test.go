//go:build race

package engine

// The race detector makes sync.Pool drop a share of what is put into it, so
// allocation counts mean nothing under it.
func init() { raceEnabled = true }
