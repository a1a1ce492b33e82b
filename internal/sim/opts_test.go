package sim

import (
	"testing"

	"prophet/internal/mem"
)

// TestPackedReplayMatchesSliceReplay pins that a packed trace replays the
// exact record sequence of the slice it was packed from: the Stats equal a
// slice replay of the same records, block-batched and record at a time.
func TestPackedReplayMatchesSliceReplay(t *testing.T) {
	recs := append(loads(3000, 0x400, true), loads(3000, 0x408, false)...)
	packed := mem.Pack(mem.NewSliceSource(recs))
	for _, opts := range []Opts{{}, {BlockRecords: -1}} {
		want := RunOpts(Default(), opts, nil, nil, nil, nil, mem.NewSliceSource(recs))
		if st := RunOpts(Default(), opts, nil, nil, nil, nil, packed.Source()); st != want {
			t.Fatalf("packed replay at %+v:\n got %+v\nwant %+v", opts, st, want)
		}
	}
}
