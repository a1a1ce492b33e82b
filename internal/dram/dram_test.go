package dram

import (
	"testing"
	"testing/quick"

	"prophet/internal/mem"
)

func TestUnloadedLatency(t *testing.T) {
	d := New(Default())
	done := d.Read(0, 1000)
	if got := done - 1000; got != Default().BaseLatency {
		t.Fatalf("unloaded read latency = %d, want %d", got, Default().BaseLatency)
	}
}

func TestQueueingDelay(t *testing.T) {
	cfg := Config{Channels: 1, BaseLatency: 100, BurstCycles: 10, MaxQueue: 0}
	d := New(cfg)
	// Back-to-back reads at the same cycle must serialize on the channel.
	d1 := d.Read(0, 0)
	d2 := d.Read(1, 0)
	d3 := d.Read(2, 0)
	if d1 != 100 {
		t.Fatalf("first read done at %d, want 100", d1)
	}
	if d2 != 110 || d3 != 120 {
		t.Fatalf("queued reads done at %d,%d want 110,120", d2, d3)
	}
}

func TestChannelsRelieveQueueing(t *testing.T) {
	cfg := Config{Channels: 2, BaseLatency: 100, BurstCycles: 10}
	d := New(cfg)
	// Lines 0 and 1 interleave across channels: no queueing.
	d1 := d.Read(0, 0)
	d2 := d.Read(1, 0)
	if d1 != 100 || d2 != 100 {
		t.Fatalf("two-channel parallel reads done at %d,%d want 100,100", d1, d2)
	}
	// Line 2 maps back to channel 0 and queues behind line 0.
	d3 := d.Read(2, 0)
	if d3 != 110 {
		t.Fatalf("same-channel read done at %d, want 110", d3)
	}
}

func TestWritesConsumeBandwidth(t *testing.T) {
	cfg := Config{Channels: 1, BaseLatency: 100, BurstCycles: 10}
	d := New(cfg)
	d.Write(0, 0)
	done := d.Read(1, 0)
	if done != 110 {
		t.Fatalf("read after write done at %d, want 110 (write occupies channel)", done)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Traffic() != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMaxQueueSaturates(t *testing.T) {
	cfg := Config{Channels: 1, BaseLatency: 100, BurstCycles: 10, MaxQueue: 4}
	d := New(cfg)
	var last uint64
	for i := 0; i < 100; i++ {
		last = d.Read(mem.Line(i), 0)
	}
	// With MaxQueue=4 the service start is capped at 4*10 cycles past now,
	// so completion is capped at 40 + 100.
	if last != 140 {
		t.Fatalf("saturated read done at %d, want 140", last)
	}
}

func TestAvgReadLatency(t *testing.T) {
	d := New(Config{Channels: 1, BaseLatency: 100, BurstCycles: 10})
	// Latencies: 100 and 110 (the second waits one burst) -> avg 105.
	if sum := d.Read(0, 0) + d.Read(1, 0); sum != 2*105 {
		t.Fatalf("mean read latency = %v, want 105", float64(sum)/2)
	}
}

func TestNewPanicsOnZeroChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 channels should panic")
		}
	}()
	New(Config{Channels: 0})
}

// Property: completion is never before now + BaseLatency, and traffic
// accounting matches the number of operations.
func TestReadLowerBound(t *testing.T) {
	f := func(offsets []uint16) bool {
		cfg := Config{Channels: 2, BaseLatency: 50, BurstCycles: 8, MaxQueue: 16}
		d := New(cfg)
		now := uint64(0)
		for _, o := range offsets {
			now += uint64(o % 20)
			done := d.Read(mem.Line(o), now)
			if done < now+cfg.BaseLatency {
				return false
			}
		}
		return d.Stats().Reads == uint64(len(offsets))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := Default()
	if cfg.Channels != 1 {
		t.Errorf("Table 1 specifies a single channel, got %d", cfg.Channels)
	}
	if cfg.BaseLatency == 0 || cfg.BurstCycles == 0 {
		t.Error("default latencies must be non-zero")
	}
}
