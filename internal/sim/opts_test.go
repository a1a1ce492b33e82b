package sim

import (
	"testing"

	"prophet/internal/mem"
)

// TestPackedTraceSkipsDecodeAhead pins that a packed trace counts as in
// memory: at Parallelism 2 the run replays it unwrapped, while a streaming
// source still gets a decode-ahead pipeline, and the Stats equal a
// sequential run over the same records.
func TestPackedTraceSkipsDecodeAhead(t *testing.T) {
	recs := append(loads(3000, 0x400, true), loads(3000, 0x408, false)...)
	packed := mem.Pack(mem.NewSliceSource(recs))
	opts := Opts{Parallelism: 2}.normalized()

	src := packed.Source()
	if got, pf := decodeAhead(src, opts, 2); got != mem.Source(src) || pf != nil {
		t.Fatalf("decodeAhead wrapped a packed source in %T", got)
	}
	stream := mem.FuncSource(mem.NewSliceSource(recs).Next)
	got, pf := decodeAhead(stream, opts, 2)
	if pf == nil || got != mem.Source(pf) {
		t.Fatalf("decodeAhead left a streaming source unwrapped (%T)", got)
	}
	pf.Stop()

	want := RunOpts(Default(), Opts{}, nil, nil, nil, nil, mem.NewSliceSource(recs))
	if st := RunOpts(Default(), Opts{Parallelism: 2}, nil, nil, nil, nil, packed.Source()); st != want {
		t.Fatalf("packed run at Parallelism 2:\n got %+v\nwant %+v", st, want)
	}
}
