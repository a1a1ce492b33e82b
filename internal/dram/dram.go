// Package dram models the off-chip memory of the simulated system: an
// LPDDR5-like device with per-channel bandwidth occupancy and a fixed device
// latency, matching the "LPDDR5_5500_1x16_BG_BL32, single channel" row of
// Table 1 (Figure 18 widens it to multiple channels).
//
// The model is deliberately simple but captures the two effects the paper's
// results depend on: (1) every access — demand, prefetch, or writeback —
// occupies a channel for a burst, so inaccurate prefetching steals bandwidth
// from demand traffic; (2) queueing delay grows when traffic bursts exceed
// channel bandwidth, which is what punishes over-aggressive prefetchers on
// bandwidth-sensitive workloads such as astar.
package dram

import "prophet/internal/mem"

// Config describes the memory device.
type Config struct {
	// Channels is the number of independent channels; lines are
	// channel-interleaved by line address.
	Channels int
	// BaseLatency is the unloaded access latency in core cycles
	// (row activation + CAS + transfer head).
	BaseLatency uint64
	// BurstCycles is the channel occupancy of one 64-byte transfer in core
	// cycles. At a 3GHz core and 11GB/s per LPDDR5-5500 x16 channel a 64B
	// line occupies the channel for ~17 cycles.
	BurstCycles uint64
	// MaxQueue bounds the modelled backlog per channel: once a channel is
	// this many bursts behind, further requests see the saturated delay
	// rather than growing it without bound. 0 means unbounded.
	MaxQueue int
}

// Default returns the Table 1 configuration (single channel).
func Default() Config {
	return Config{Channels: 1, BaseLatency: 200, BurstCycles: 17, MaxQueue: 64}
}

// Stats counts DRAM traffic. Reads + Writes is the "DRAM traffic" metric of
// Figure 11 and Figure 19(b).
type Stats struct {
	Reads  uint64
	Writes uint64
}

// Traffic returns total line transfers (reads + writes).
func (s Stats) Traffic() uint64 { return s.Reads + s.Writes }

// DRAM is the memory device model.
type DRAM struct {
	cfg  Config
	busy []uint64 // per-channel cycle until which the channel is occupied
	st   Stats
}

// New builds a DRAM model. It panics on a non-positive channel count, which
// is a static configuration error.
func New(cfg Config) *DRAM {
	if cfg.Channels <= 0 {
		panic("dram: channel count must be positive")
	}
	return &DRAM{cfg: cfg, busy: make([]uint64, cfg.Channels)}
}

// Config returns the device configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Reset restores the just-constructed state, reusing the channel array. It
// exists so internal/sim can pool simulated systems across runs.
func (d *DRAM) Reset() {
	clear(d.busy)
	d.st = Stats{}
}

// Stats returns a copy of the traffic counters.
func (d *DRAM) Stats() Stats { return d.st }

func (d *DRAM) channel(l mem.Line) int {
	return int(uint64(l) % uint64(d.cfg.Channels))
}

// Read issues a line read at cycle now and returns the cycle its data
// arrives.
func (d *DRAM) Read(l mem.Line, now uint64) (done uint64) {
	ch := d.channel(l)
	start := d.schedule(ch, now)
	done = start + d.cfg.BaseLatency
	d.st.Reads++
	return done
}

// Write issues a writeback at cycle now. Writebacks are posted (the requester
// does not wait) but still occupy channel bandwidth.
func (d *DRAM) Write(l mem.Line, now uint64) {
	ch := d.channel(l)
	d.schedule(ch, now)
	d.st.Writes++
}

// schedule reserves one burst on channel ch at or after cycle now and returns
// the service start cycle.
func (d *DRAM) schedule(ch int, now uint64) uint64 {
	start := now
	if d.busy[ch] > start {
		start = d.busy[ch]
	}
	if d.cfg.MaxQueue > 0 {
		cap := now + uint64(d.cfg.MaxQueue)*d.cfg.BurstCycles
		if start > cap {
			start = cap
		}
	}
	d.busy[ch] = start + d.cfg.BurstCycles
	return start
}
