// Command aqvbench prints the experiment tables defined in DESIGN.md
// Section 6 (the 1995 paper is theory-only; these experiments validate its
// theorems and reproduce the canonical evaluation of the algorithms it
// founded). It measures nothing else: the repo's benchmark is bench/
// (BENCHMARK.json, `bash bench/run.sh`).
//
// Usage:
//
//	aqvbench          # run every experiment
//	aqvbench -exp F1  # run one experiment
//	aqvbench -list    # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aqvbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aqvbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (T1..T6, F1..F7) or 'all'")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(experiments.IDs(), " "))
		return nil
	}
	ids := []string{*exp}
	if strings.EqualFold(*exp, "all") {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		run, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		fmt.Println(run().Render())
	}
	return nil
}
