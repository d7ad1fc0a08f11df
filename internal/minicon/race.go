//go:build race

package minicon

func init() { raceChecks = true }
