// Command tracegen exports a workload's memory trace to a file in the
// repository's binary trace format (see internal/mem), for inspection or
// byte-identical replay.
//
// Usage:
//
//	tracegen -workload omnetpp -records 100000 -o omnetpp.trc
//	tracegen -workload bfs_100000_16 -o bfs.trc.gz   # gzip-compressed
//	tracegen -workload mcf -stats            # print a pattern summary only
//	tracegen -workload file:omnetpp.trc -stats
//	tracegen -workload champsim:trace.champsim.gz -o trace.trc.gz  # convert
//
// A ".gz" output suffix selects gzip compression; either form round-trips
// through the "file:<path>" workload source (cmd/simulate -workload
// file:omnetpp.trc, or the daemon's POST /v1/evaluate).
//
// A -workload naming a recorded trace (any internal/ingest format:
// "file:<path>", "champsim:<path>" or "csv:<path>", gzip auto-detected)
// streams through its converter: -stats reads it in O(block) memory, and -o
// converts it to the native format, so a third-party trace can be archived
// and replayed via "file:" without paying conversion on every run.
package main

import (
	"flag"
	"fmt"
	"os"

	"prophet"

	"prophet/internal/ingest"
	"prophet/internal/mem"
)

func main() {
	workload := flag.String("workload", "omnetpp", "workload name, or a recorded trace (file:<path>, champsim:<path>, csv:<path>)")
	records := flag.Uint64("records", 0, "memory records (0 = workload default)")
	out := flag.String("o", "", "output trace file; a .gz suffix gzip-compresses (required unless -stats)")
	statsOnly := flag.Bool("stats", false, "print trace statistics instead of writing a file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println("tracegen", prophet.Version())
		return
	}

	if f, path, ok := ingest.Split(*workload); ok {
		convert(f, path, *out, *records, *statsOnly)
		return
	}

	w, err := prophet.Find(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	src, err := w.WithRecords(*records).Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *statsOnly {
		printStats(src)
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "need -o <file> (or -stats)")
		os.Exit(1)
	}
	n, err := mem.WriteTraceFile(*out, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records to %s\n", n, *out)
}

// convert streams a recorded trace through its ingest converter into the
// native trace format (or -stats). The converter's terminal error is checked
// after the stream drains: a truncated or corrupt input must fail the
// conversion, never silently archive a short trace.
func convert(f ingest.Format, path, out string, records uint64, statsOnly bool) {
	r, err := ingest.OpenFile(f, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer r.Close()
	var src mem.Source = r
	if records > 0 {
		src = mem.Limit(src, records)
	}
	if statsOnly {
		printStats(src)
		if err := r.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if out == "" {
		fmt.Fprintln(os.Stderr, "need -o <file> (or -stats)")
		os.Exit(1)
	}
	// Creating the output truncates it, and a failed conversion removes it:
	// either would destroy an input written to itself.
	if in, err := os.Stat(path); err == nil {
		if o, err := os.Stat(out); err == nil && os.SameFile(in, o) {
			fmt.Fprintf(os.Stderr, "-o %s would overwrite its input\n", out)
			os.Exit(1)
		}
	}
	n, err := mem.WriteTraceFile(out, src)
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		os.Remove(out)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("converted %d records from %s:%s to %s\n", n, f.Name, path, out)
}

func printStats(src mem.Source) {
	var records, instructions, loads, stores, deps uint64
	pcs := map[mem.Addr]uint64{}
	lines := map[mem.Line]struct{}{}
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		records++
		instructions += a.Instructions()
		if a.Kind == mem.Store {
			stores++
		} else {
			loads++
		}
		if a.Dep != 0 {
			deps++
		}
		pcs[a.PC]++
		lines[a.Line()] = struct{}{}
	}
	fmt.Printf("records:       %d\n", records)
	fmt.Printf("instructions:  %d\n", instructions)
	fmt.Printf("loads/stores:  %d / %d\n", loads, stores)
	fmt.Printf("dependent:     %d (%.1f%%)\n", deps, pct(deps, records))
	fmt.Printf("distinct PCs:  %d\n", len(pcs))
	fmt.Printf("distinct lines: %d (%.1f MB footprint)\n", len(lines), float64(len(lines))*64/1024/1024)
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
