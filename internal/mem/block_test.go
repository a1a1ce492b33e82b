package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// recordSource wraps a SliceSource but hides its BlockSource implementation,
// forcing FillBlock down the record-at-a-time fallback path.
type recordSource struct{ src *SliceSource }

func (r recordSource) Next() (Access, bool) { return r.src.Next() }

// blockDrain drains src via FillBlock with a fixed buffer size, returning
// every record and the block lengths observed.
func blockDrain(src Source, block int) (recs []Access, blocks []int) {
	buf := make([]Access, block)
	for {
		blk := FillBlock(src, buf)
		if len(blk) == 0 {
			return recs, blocks
		}
		blocks = append(blocks, len(blk))
		recs = append(recs, blk...)
	}
}

// TestNextBlockEquivalence checks every BlockSource implementation (and the
// record-loop fallback) against the record-at-a-time drain of the same
// stream, across block sizes that exercise short final blocks.
func TestNextBlockEquivalence(t *testing.T) {
	recs := make([]Access, 0, 100)
	for i := 0; i < 100; i++ {
		recs = append(recs, Access{
			PC:   Addr(0x400000 + i*8),
			Addr: Addr(0x7f000000 + i*64),
			Kind: Kind(i % 2),
			Dep:  uint32(i % 5),
			Gap:  uint16(i % 7),
		})
	}
	var traced bytes.Buffer
	if _, err := WriteTrace(&traced, NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() Source{
		"slice":    func() Source { return NewSliceSource(recs) },
		"limited":  func() Source { return Limit(NewSliceSource(recs), 73) },
		"fallback": func() Source { return recordSource{NewSliceSource(recs)} },
		"packed":   func() Source { return Pack(NewSliceSource(recs)).Source() },
		"trace": func() Source {
			tr, err := NewTraceReader(bytes.NewReader(traced.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	}
	for name, open := range sources {
		var want []Access
		ref := open()
		for {
			a, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, a)
		}
		for _, block := range []int{1, 3, 7, 64, 100, 101, 4096} {
			t.Run(fmt.Sprintf("%s/block=%d", name, block), func(t *testing.T) {
				got, blocks := blockDrain(open(), block)
				if len(got) != len(want) {
					t.Fatalf("drained %d records, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
					}
				}
				for i, n := range blocks {
					if n > block {
						t.Fatalf("block %d has %d records, exceeds buffer %d", i, n, block)
					}
					if i < len(blocks)-1 && n < block && name == "slice" {
						t.Fatalf("non-final block %d is short (%d < %d)", i, n, block)
					}
				}
			})
		}
		// A zero-length buffer yields the empty slice without consuming
		// anything; the stream remains fully drainable afterwards.
		src := open()
		if blk := FillBlock(src, nil); len(blk) != 0 {
			t.Fatalf("%s: FillBlock(nil buf) returned %d records", name, len(blk))
		}
		got, _ := blockDrain(src, 16)
		if len(got) != len(want) {
			t.Fatalf("%s: zero-length fill consumed records (%d left of %d)", name, len(got), len(want))
		}
	}
}

// FuzzBlockReplay feeds the trace parser arbitrary bytes and drains the
// result in block mode: whatever the stream — clean, truncated mid-record,
// corrupt header — block replay must deliver exactly the records the
// record-at-a-time reader delivers, classify failures under ErrBadTrace
// identically, handle short final blocks, and never panic.
func FuzzBlockReplay(f *testing.F) {
	var good bytes.Buffer
	if _, err := WriteTrace(&good, NewSliceSource(testRecords())); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes(), uint16(1))
	f.Add(good.Bytes(), uint16(3)) // short final block
	f.Add(good.Bytes(), uint16(4096))
	f.Add(good.Bytes()[:len(good.Bytes())-5], uint16(2)) // truncated mid-record
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, blockArg uint16) {
		block := int(blockArg)%512 + 1
		// Record-at-a-time reference drain.
		ref, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("NewTraceReader error %v not classified under ErrBadTrace", err)
			}
			return
		}
		var want []Access
		for {
			a, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, a)
		}
		// Block-mode drain of the same bytes.
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second open failed where first succeeded: %v", err)
		}
		buf := make([]Access, block)
		var got []Access
		for {
			blk := tr.NextBlock(buf)
			if len(blk) == 0 {
				break
			}
			if len(blk) > block {
				t.Fatalf("block of %d records exceeds buffer %d", len(blk), block)
			}
			got = append(got, blk...)
		}
		if len(got) != len(want) {
			t.Fatalf("block mode delivered %d records, record mode %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("record %d: block mode %+v, record mode %+v", i, got[i], want[i])
			}
		}
		refErr, blockErr := ref.Err(), tr.Err()
		if (refErr == nil) != (blockErr == nil) {
			t.Fatalf("error divergence: record mode %v, block mode %v", refErr, blockErr)
		}
		if blockErr != nil && !errors.Is(blockErr, ErrBadTrace) {
			t.Fatalf("block-mode error %v not classified under ErrBadTrace", blockErr)
		}
		if blk := tr.NextBlock(buf); len(blk) != 0 {
			t.Fatal("NextBlock returned records after stream end")
		}
	})
}
