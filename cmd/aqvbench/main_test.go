package main

import "testing"

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "Z9"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full experiment")
	}
	if err := run([]string{"-exp", "T3"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBadFlag pins the flag surface at -exp and -list: the measurement
// modes aqvbench once had are undefined flags now (the repo's benchmark is
// bench/run.sh).
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-evalbench", "-"},
		{"-scaling", "-"},
		{"-governance", "-"},
		{"-serve", "-"},
		{"-serve-dur", "1s"},
		{"-serve-conc", "2,4"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("bad flag %v accepted", args)
		}
	}
}
