//go:build race

package core

func init() { raceChecks = true }
