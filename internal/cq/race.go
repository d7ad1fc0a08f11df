//go:build race

package cq

func init() { raceChecks = true }
