// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                 # run the full suite in paper order
//	experiments -list           # list experiment IDs
//	experiments -run F10,F19    # run selected experiments
//	experiments -quick          # reduced workload sets and trace lengths
//	experiments -records N      # override trace length per run
//	experiments -workloads file:trace.bin   # append workloads to F10–F12, F15
//
// Every ID given to -run is checked before any experiment runs, so a typo
// fails at once instead of after a long figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"prophet"

	"prophet/internal/cliutil"
	"prophet/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	quick := flag.Bool("quick", false, "reduced workload sets and trace lengths")
	records := flag.Uint64("records", 0, "override memory records per run (0 = workload default)")
	workers := flag.Int("workers", 0, "worker pool per experiment (0 = all CPUs, 1 = serial; output is byte-identical either way)")
	extra := flag.String("workloads", "", "comma-separated extra workloads (file:, champsim:, csv:) appended to the comparison figures")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("experiments", prophet.Version())
		return
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-5s %s\n", e.ID, e.Remark)
		}
		return
	}

	opts := experiments.Options{Quick: *quick, Records: *records, Workers: *workers}
	for _, name := range cliutil.SplitList(*extra) {
		w, err := prophet.Find(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		w = w.WithRecords(*records)
		f, err := w.SourceFactory()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Extra = append(opts.Extra, experiments.ExtraWorkload{Name: w.Name, Factory: f})
	}
	ids := cliutil.SplitList(*run)
	if len(ids) == 0 {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		run, err := experiments.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runners[i] = run
	}
	for i, id := range ids {
		start := time.Now()
		fmt.Print(runners[i](opts).Render())
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
