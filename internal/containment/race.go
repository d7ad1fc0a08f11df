//go:build race

package containment

func init() { raceChecks = true }
