package workloads

import (
	"testing"

	"prophet/internal/mem"
)

// BenchmarkGenerate measures trace generation as the simulator consumes it:
// each iteration builds a generator for the workload at its catalog length
// and drains it through mem.FillBlock in blocks of mem.DefaultBlockRecords.
// ns/record is the cost every simulation pass pays to replay a catalog
// workload, against about 1 µs a record to simulate it.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"mcf", "omnetpp", "soplex_pds-50", "sphinx3", "xalancbmk"} {
		b.Run(name, func(b *testing.B) {
			w, _ := Get(name)
			buf := make([]mem.Access, mem.DefaultBlockRecords)
			records := 0
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				src := w.Source(0)
				for blk := mem.FillBlock(src, buf); len(blk) > 0; blk = mem.FillBlock(src, buf) {
					records += len(blk)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
	}
}
