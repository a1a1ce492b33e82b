// Command prophet drives the profile-guided pipeline of Figure 5 end to
// end: profile one or more inputs with the simplified temporal prefetcher
// (Step 1), merge counters across inputs (Step 3), generate hints (Step 2),
// and run the optimized binary, reporting the speedup over the
// no-temporal-prefetching baseline and over the Triangel runtime scheme.
//
// Usage:
//
//	prophet -inputs gcc_166,gcc_expr -eval gcc_200
//	prophet -inputs mcf            # profile and evaluate the same input
//	prophet -inputs omnetpp -el-acc 0.25 -priority-bits 3
//
// -inputs and -eval take comma-separated workload names; blanks and empty
// entries are ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"prophet"

	"prophet/internal/cliutil"
)

func main() {
	inputs := flag.String("inputs", "", "comma-separated workloads to profile and learn, in order")
	eval := flag.String("eval", "", "workloads to evaluate (default: the learned inputs)")
	records := flag.Uint64("records", 0, "memory records per run (0 = workload default)")
	elAcc := flag.Float64("el-acc", 0.15, "EL_ACC insertion threshold (Equation 1)")
	prioBits := flag.Int("priority-bits", 2, "replacement priority bits n (Equation 2)")
	mvbCand := flag.Int("mvb-candidates", 1, "Multi-path Victim Buffer candidates per lookup")
	learnL := flag.Int("learn-l", 4, "Equation 4 designer parameter L")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("prophet", prophet.Version())
		return
	}

	inputList := cliutil.SplitList(*inputs)
	if len(inputList) == 0 {
		fmt.Fprintln(os.Stderr, "need -inputs (e.g. -inputs gcc_166,gcc_expr)")
		os.Exit(1)
	}

	ctx := context.Background()
	ev := prophet.New(
		prophet.WithELAcc(*elAcc),
		prophet.WithPriorityBits(*prioBits),
		prophet.WithMVBCandidates(*mvbCand),
		prophet.WithLearningL(*learnL),
	)
	s := ev.NewSession()

	for _, name := range inputList {
		w, err := resolve(name, *records)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("Step 1+3: profiling %s and merging counters (loop %d)\n", w.Name, s.Loops()+1)
		if err := s.Profile(w); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	bin := s.Optimize()
	fmt.Printf("Step 2: analysis produced %d PC hints, metaWays=%d, disableTP=%v\n",
		bin.PCHints, bin.MetaWays, bin.TPDisabled)
	printHints(bin)

	evalList := cliutil.SplitList(*eval)
	if len(evalList) == 0 {
		evalList = inputList
	}
	var ws []prophet.Workload
	for _, name := range evalList {
		w, err := resolve(name, *records)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ws = append(ws, w)
	}

	// One sweep runs each workload's baseline and Triangel reference; the
	// baselines land in the evaluator's cache, so the session's Prophet runs
	// below normalize against them without simulating them again.
	refs, err := ev.Sweep(ctx, prophet.Jobs(ws, prophet.Baseline, prophet.Triangel)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("\n%-16s %10s %10s %10s %12s %12s\n", "workload", "baseIPC", "triangel", "prophet", "vs baseline", "vs triangel")
	for i, w := range ws {
		base, tr := refs[2*i], refs[2*i+1]
		if base.Err != nil {
			fmt.Fprintln(os.Stderr, base.Err)
			os.Exit(1)
		}
		if tr.Err != nil {
			fmt.Fprintln(os.Stderr, tr.Err)
			os.Exit(1)
		}
		pr, err := s.Run(ctx, bin, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-16s %10.4f %10.4f %10.4f %11.2f%% %11.2f%%\n",
			w.Name, base.Stats.IPC, tr.Stats.IPC, pr.IPC,
			(pr.Speedup-1)*100,
			(pr.IPC/tr.Stats.IPC-1)*100)
	}
}

// printHints lists the injected PC hints, heaviest miss contributors first.
func printHints(bin prophet.Binary) {
	hints := bin.Hints()
	max := 12
	if len(hints) < max {
		max = len(hints)
	}
	for _, h := range hints[:max] {
		fmt.Printf("  hint pc=%#x insert=%v priority=%d (misses %d)\n", h.PC, h.Insert, h.Priority, h.Misses)
	}
	if len(hints) > max {
		fmt.Printf("  ... and %d more hints\n", len(hints)-max)
	}
}

func resolve(name string, records uint64) (prophet.Workload, error) {
	w, err := prophet.Find(name)
	if err != nil {
		known := prophet.Catalog()
		sort.Strings(known)
		return prophet.Workload{}, fmt.Errorf("%v; catalog: %s", err, strings.Join(known, ", "))
	}
	return w.WithRecords(records), nil
}
