//go:build race

package datalog

func init() { raceChecks = true }
