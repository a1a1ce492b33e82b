// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                 # run the full suite in paper order
//	experiments -list           # list experiment IDs
//	experiments -run F10,F19    # run selected experiments
//	experiments -quick          # reduced workload sets and trace lengths
//	experiments -records N      # override trace length per run
//	experiments -backends http://w1:8373,http://w2:8373
//
// With -backends, the comparison sweeps behind the default-configuration
// figures (F10–F12, F15) shard across the given prophetd fleet — one
// batched request per backend, failover to the local engine — and render
// byte-identical output, provided the daemons run the default engine
// configuration. Figures that override the configuration (F16–F18) and
// -quick mode always run in process.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
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
	backends := flag.String("backends", "", "comma-separated prophetd base URLs to shard default-configuration figure sweeps across")
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
		opts.Extra = append(opts.Extra, experiments.ExtraWorkload{Name: w.Name, Records: w.Records, Factory: f})
	}
	if urls := cliutil.SplitList(*backends); len(urls) > 0 {
		ev := prophet.New(prophet.WithBackends(urls...), prophet.WithWorkers(*workers))
		opts.RemoteSweep = remoteSweep(ev)
	}
	var ids []string
	if *run != "" {
		ids = strings.Split(*run, ",")
	} else {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		res, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// remoteSweep adapts a backend-configured Evaluator to the experiments
// package's fleet hook (the callback keeps internal/experiments free of the
// public-API import cycle).
func remoteSweep(ev *prophet.Evaluator) experiments.RemoteSweepFunc {
	return func(jobs []experiments.RemoteJob) []experiments.RemoteRun {
		pj := make([]prophet.Job, len(jobs))
		for i, j := range jobs {
			pj[i] = prophet.Job{
				Workload: prophet.Workload{Name: j.Workload, Records: j.Records},
				Scheme:   prophet.Scheme(j.Scheme),
			}
		}
		// The dispatcher never fails sweep-level with a background context;
		// per-job errors ride in the rows.
		res, _ := ev.Sweep(context.Background(), pj...)
		out := make([]experiments.RemoteRun, len(res))
		for i, r := range res {
			out[i] = experiments.RemoteRun{
				IPC:      r.Stats.IPC,
				Speedup:  r.Stats.Speedup,
				Traffic:  r.Stats.NormalizedTraffic,
				Coverage: r.Stats.Coverage,
				Accuracy: r.Stats.Accuracy,
				MetaWays: r.Stats.MetaWays,
				Meta:     r.Meta,
				Err:      r.Err,
			}
		}
		return out
	}
}
