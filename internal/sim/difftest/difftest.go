// Package difftest is the differential equivalence harness behind the
// block-batched hot loop. The simulator's contract is that sim.Opts shapes
// HOW a run executes — how many records the core consumes per block — and
// never WHAT it computes: Stats must be bit-identical to the
// record-at-a-time sequential reference at every block size. This package
// replays the golden-corpus cells and generated workloads through a set of
// block sizes and diffs the full Stats structs field by field; a single
// diverging counter fails the build. The corpus is also replayed at
// several evaluator worker counts, so runs that share pooled scratch and
// recycled engine storage concurrently must agree too. Every Stats the
// tests produce, the sequential reference included, is also checked
// against the counter invariants no correct run can break.
//
// CI drives the block sizes explicitly:
//
//	go test ./internal/sim/difftest -difftest.blocks=1,64,4096
package difftest

import (
	"fmt"
	"reflect"

	"prophet/internal/sim"
)

// Sequential is the reference execution shape: the record-at-a-time loop
// every other shape must reproduce bit for bit.
var Sequential = Variant{Name: "sequential", Opts: sim.Opts{BlockRecords: -1}}

// Variant names one execution shape of the hot loop.
type Variant struct {
	Name string
	Opts sim.Opts
}

// Matrix names one block-batched variant per block size.
func Matrix(blocks []int) []Variant {
	out := make([]Variant, len(blocks))
	for i, b := range blocks {
		out[i] = Variant{Name: fmt.Sprintf("block=%d", b), Opts: sim.Opts{BlockRecords: b}}
	}
	return out
}

// Diff reports the field paths at which two Stats differ, with both values
// (nil means bit-identical). The walk descends nested structs so a failure
// names the exact counter that diverged, not just "stats differ".
func Diff(a, b sim.Stats) []string {
	var out []string
	diffValue("Stats", reflect.ValueOf(a), reflect.ValueOf(b), &out)
	return out
}

func diffValue(path string, a, b reflect.Value, out *[]string) {
	if a.Kind() == reflect.Struct {
		for i := 0; i < a.NumField(); i++ {
			diffValue(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), out)
		}
		return
	}
	if !a.Equal(b) {
		*out = append(*out, fmt.Sprintf("%s: %v != %v", path, a, b))
	}
}
