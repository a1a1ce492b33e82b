package cache

import (
	"testing"

	"prophet/internal/mem"
)

// BenchmarkLLCMissFill measures the LLC's miss path without the simulator
// around it: the Table 1 L3 geometry (2 MiB, 16 ways, SRRIP) under a
// uniform stream over eight times its capacity, so about seven accesses in
// eight miss and evict. Each miss is completed by Fill, every fourth fill
// is a prefetch, and every eighth access is a writeback (MarkDirtyFill,
// then Fill on a miss), the way sim.System drives its L3.
func BenchmarkLLCMissFill(b *testing.B) {
	c := New(Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16, HitLatency: 20, MSHRs: 36, Policy: SRRIP})
	rng := mem.NewPRNG(1)
	stream := make([]mem.Line, 1<<20)
	for i := range stream {
		stream[i] = mem.Line(rng.Intn(8 * len(c.lines)))
	}
	step := func(i int) {
		l := stream[i&(len(stream)-1)]
		now := uint64(i)
		if i&7 == 0 {
			if handled, slot := c.MarkDirtyFill(l, now); !handled {
				c.Fill(slot, l, now, true, false, 0)
			}
			return
		}
		if res, slot := c.AccessFill(l, now, false); !res.Hit {
			c.Fill(slot, l, now+200, false, i&3 == 1, mem.Addr(0x400000+i&0xfff))
		}
	}
	// Warm up until the cache is full, so every measured miss evicts.
	for i := 0; i < len(stream); i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
