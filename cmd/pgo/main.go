// Command pgo is the acceptance gate of the repository's
// profile-guided-optimization loop: it verifies that a PGO build actually
// beats the plain build. Capturing, merging and inspecting profiles use the
// Go toolchain directly (see docs/PROFILING.md):
//
//	go tool pprof -proto a.pprof b.pprof > default.pgo   # merge
//	go tool pprof -top default.pgo                       # inspect
//
// -verify compares two prophetbench JSON reports — the plain build's and
// the PGO build's, measured on the same machine and matrix — and exits
// non-zero unless the PGO build wins the ns/op geomean by more than -min-win
// percent (default 0: any win passes, any loss fails). CI's pgo job runs
// exactly this.
//
//	pgo -verify bench-plain.json bench-pgo.json
//	pgo -verify -min-win 1.5 bench-plain.json bench-pgo.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"prophet"
)

func main() {
	var (
		verify      = flag.Bool("verify", false, "compare two prophetbench reports (plain, pgo) and require a PGO win")
		minWin      = flag.Float64("min-win", 0, "with -verify: minimum geomean ns/op improvement percent the PGO build must show")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("pgo", prophet.Version())
		return
	}
	if !*verify {
		fatalf("usage: pgo -verify [-min-win P] <plain report.json> <pgo report.json> (merge profiles with go tool pprof -proto)")
	}
	if flag.NArg() != 2 {
		fatalf("-verify takes exactly two arguments: <plain report.json> <pgo report.json>")
	}
	if err := verifyWin(flag.Arg(0), flag.Arg(1), *minWin); err != nil {
		fatalf("%v", err)
	}
}

// benchReport is the subset of cmd/prophetbench's JSON schema the verify
// mode needs (schema 1).
type benchReport struct {
	Schema  int    `json:"schema"`
	Records uint64 `json:"records"`
	Cells   []struct {
		Workload string  `json:"workload"`
		Scheme   string  `json:"scheme"`
		NsPerOp  float64 `json:"nsPerOp"`
	} `json:"cells"`
}

func readBench(path string) (benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchReport{}, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return benchReport{}, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != 1 {
		return benchReport{}, fmt.Errorf("%s: unsupported prophetbench schema %d (want 1)", path, rep.Schema)
	}
	return rep, nil
}

// verifyWin enforces the PGO acceptance gate: the PGO build's geomean ns/op
// across the cells shared with the plain report must improve by more than
// minWin percent.
func verifyWin(plainPath, pgoPath string, minWin float64) error {
	plain, err := readBench(plainPath)
	if err != nil {
		return err
	}
	pgo, err := readBench(pgoPath)
	if err != nil {
		return err
	}
	if plain.Records != pgo.Records {
		return fmt.Errorf("reports measured different trace lengths (%d vs %d records) — rerun both on the same matrix",
			plain.Records, pgo.Records)
	}
	plainNs := map[string]float64{}
	for _, c := range plain.Cells {
		plainNs[c.Workload+"/"+c.Scheme] = c.NsPerOp
	}
	var logSum float64
	matched := 0
	fmt.Printf("%-12s %-9s %14s %14s %9s\n", "workload", "scheme", "plain ns/op", "pgo ns/op", "Δ")
	for _, c := range pgo.Cells {
		old, ok := plainNs[c.Workload+"/"+c.Scheme]
		if !ok || old <= 0 || c.NsPerOp <= 0 {
			continue
		}
		matched++
		logSum += math.Log(c.NsPerOp / old)
		fmt.Printf("%-12s %-9s %14.0f %14.0f %8.1f%%\n",
			c.Workload, c.Scheme, old, c.NsPerOp, (c.NsPerOp-old)/old*100)
	}
	if matched == 0 {
		return fmt.Errorf("the reports share no measurable cells — were they produced by the same matrix?")
	}
	// Positive geo = PGO slower; negative = PGO faster.
	geo := (math.Exp(logSum/float64(matched)) - 1) * 100
	win := -geo
	fmt.Printf("\ngeomean ns/op: PGO build is %+.2f%% vs plain (%d cells)\n", geo, matched)
	if win <= minWin {
		return fmt.Errorf("PGO build does not beat the plain build by more than %.2f%% (won %.2f%%) — recapture profiles (docs/PROFILING.md) or investigate the regression", minWin, win)
	}
	fmt.Printf("PASS: PGO build wins by %.2f%% (> %.2f%% required)\n", win, minWin)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pgo: "+format+"\n", args...)
	os.Exit(1)
}
