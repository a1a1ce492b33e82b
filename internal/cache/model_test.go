package cache

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"prophet/internal/mem"
)

// modelLine is the reference model's state of one resident line.
type modelLine struct {
	dirty    bool
	prefetch bool
	trigger  mem.Addr // meaningful only while prefetch
	ready    uint64
}

// model is a map-based reference for a Cache: which lines are resident and
// with what state, the demand-way count, and the counters every operation
// should move. It cannot predict which way a policy evicts, so it checks
// that a fill evicts exactly when the line's set is full, and that the
// evicted line is a resident one of that set with the state it recorded.
type model struct {
	t      *testing.T
	c      *Cache
	lines  map[mem.Line]modelLine
	ways   int
	stats  Stats
	maxHit bool // a line at mem.MaxLine has been filled
}

func newModel(t *testing.T, cfg Config) *model {
	return &model{t: t, c: New(cfg), lines: map[mem.Line]modelLine{}, ways: cfg.Ways}
}

func (m *model) set(l mem.Line) int { return m.c.setIndex(l) }

// inSet counts the resident lines of set si.
func (m *model) inSet(si int) int {
	n := 0
	for l := range m.lines {
		if m.set(l) == si {
			n++
		}
	}
	return n
}

// evicted checks one eviction the cache reported against the model's
// state of that line, and removes the line.
func (m *model) evicted(op string, ev Eviction) {
	m.t.Helper()
	st, ok := m.lines[ev.Line()]
	if !ev.Valid() || !ok {
		m.t.Fatalf("%s: evicted %v, which the model does not hold", op, ev)
	}
	var trigger mem.Addr
	if st.prefetch {
		trigger = st.trigger
	}
	if ev.Dirty() != st.dirty || ev.Prefetch() != st.prefetch || ev.Trigger() != trigger {
		m.t.Fatalf("%s: eviction %v, model state %+v", op, ev, st)
	}
	if st.dirty {
		m.stats.Writebacks++
	}
	delete(m.lines, ev.Line())
}

// hit applies a demand hit's side effects to resident line l and returns
// what the access reports.
func (m *model) hit(l mem.Line, write bool) AccessResult {
	st := m.lines[l]
	m.stats.Hits++
	res := AccessResult{Hit: true, Ready: st.ready, WasPrefetch: st.prefetch}
	if st.prefetch {
		res.Trigger = st.trigger
	}
	st.prefetch = false
	st.dirty = st.dirty || write
	m.lines[l] = st
	return res
}

// access checks a demand access's result and applies its side effects.
func (m *model) access(op string, l mem.Line, write bool, res AccessResult) {
	m.t.Helper()
	var want AccessResult
	if _, ok := m.lines[l]; ok {
		want = m.hit(l, write)
	} else {
		m.stats.Misses++
	}
	if res != want {
		m.t.Fatalf("%s %v: got %+v, want %+v", op, l, res, want)
	}
}

// fill checks a fill of absent line l and records it.
func (m *model) fill(op string, l mem.Line, st modelLine, ev Eviction) {
	m.t.Helper()
	if _, ok := m.lines[l]; ok {
		m.t.Fatalf("%s %v: fill of a resident line", op, l)
	}
	si := m.set(l)
	switch full := m.inSet(si) == m.ways; {
	case full && (!ev.Valid() || m.set(ev.Line()) != si):
		m.t.Fatalf("%s %v: full set %d evicted %+v", op, l, si, ev)
	case full:
		m.evicted(op, ev)
	case ev != (Eviction{}):
		m.t.Fatalf("%s %v: set %d has a free way but evicted %+v", op, l, si, ev)
	}
	if !st.prefetch {
		st.trigger = 0
	}
	m.lines[l] = st
	m.stats.Fills++
	m.maxHit = m.maxHit || l == mem.MaxLine
}

// verify checks the cache against the whole model: counters, occupancy,
// and every resident line's presence and ready cycle.
func (m *model) verify(op string) {
	m.t.Helper()
	if got := m.c.Stats(); got != m.stats {
		m.t.Fatalf("after %s: stats %+v, want %+v", op, got, m.stats)
	}
	if got := m.c.occupancy(); got != len(m.lines) {
		m.t.Fatalf("after %s: occupancy %d, want %d", op, got, len(m.lines))
	}
	for l, st := range m.lines {
		if ready, hit := m.c.Lookup(l); !hit || ready != st.ready {
			m.t.Fatalf("after %s: Lookup(%v) = %d, %v; want %d, true", op, l, ready, hit, st.ready)
		}
	}
}

// TestCacheMatchesModel drives every replacement policy, and the CLOCK
// fallback of PLRU at a non-power-of-two associativity, with a seeded
// random mix of every operation, and checks each result and eviction
// against the map model. The line pool includes lines at the top of the
// address space, up to mem.MaxLine.
func TestCacheMatchesModel(t *testing.T) {
	configs := []Config{
		small(LRU),
		small(PLRU),
		small(SRRIP),
		{Name: "np2", SizeBytes: 8 * 3 * mem.LineBytes, Ways: 3, HitLatency: 1, Policy: PLRU},
	}
	for _, cfg := range configs {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s-%dways/seed=%d", cfg.Policy, cfg.Ways, seed), func(t *testing.T) {
				runModel(t, cfg, seed, 5000)
			})
		}
	}
}

func runModel(t *testing.T, cfg Config, seed uint64, steps int) {
	m := newModel(t, cfg)
	c := m.c
	rng := mem.NewPRNG(seed)
	capacity := cfg.Sets() * cfg.Ways
	pick := func() mem.Line {
		if rng.Intn(4) == 0 {
			return mem.MaxLine - mem.Line(rng.Intn(2*capacity))
		}
		return mem.Line(rng.Intn(3 * capacity))
	}
	state := func() modelLine {
		return modelLine{
			dirty:    rng.Intn(3) == 0,
			prefetch: rng.Intn(3) == 0,
			trigger:  mem.Addr(0x400000 + rng.Intn(1<<12)),
			ready:    uint64(rng.Intn(1000)),
		}
	}
	for i := 0; i < steps; i++ {
		l := pick()
		var op string
		switch rng.Intn(20) {
		case 0, 1:
			op = "Access"
			write := rng.Intn(2) == 0
			m.access(op, l, write, c.Access(l, uint64(i), write))
		case 2, 3, 4:
			op = "AccessFill"
			write := rng.Intn(2) == 0
			res, slot := c.AccessFill(l, uint64(i), write)
			m.access(op, l, write, res)
			if !res.Hit {
				st := state()
				m.fill(op, l, st, c.Fill(slot, l, st.ready, st.dirty, st.prefetch, st.trigger))
			}
		case 5, 6:
			op = "LookupFill"
			ready, hit, slot := c.LookupFill(l)
			st, ok := m.lines[l]
			if hit != ok || ready != st.ready {
				t.Fatalf("LookupFill(%v) = %d, %v; model %+v, %v", l, ready, hit, st, ok)
			}
			if !hit {
				st := state()
				m.fill(op, l, st, c.Fill(slot, l, st.ready, st.dirty, st.prefetch, st.trigger))
			}
		case 7, 8, 9:
			op = "Insert"
			if len(m.lines) > 0 && rng.Intn(3) == 0 {
				// In-place refill of a resident line.
				resident := slices.Sorted(maps.Keys(m.lines))
				l = resident[rng.Intn(len(resident))]
			}
			st := state()
			ev := c.Insert(l, uint64(i), st.ready, st.dirty, st.prefetch, st.trigger)
			if old, ok := m.lines[l]; ok {
				if ev != (Eviction{}) {
					t.Fatalf("refill of %v evicted %+v", l, ev)
				}
				old.ready = min(old.ready, st.ready)
				old.dirty = old.dirty || st.dirty
				m.lines[l] = old
			} else {
				m.fill(op, l, st, ev)
			}
		case 10, 11:
			op = "MarkDirtyFill"
			handled, slot := c.MarkDirtyFill(l, uint64(i))
			if _, ok := m.lines[l]; handled != ok {
				t.Fatalf("MarkDirtyFill(%v) handled=%v, resident=%v", l, handled, ok)
			}
			if handled {
				m.hit(l, true)
				break
			}
			st := state()
			st.dirty = true
			m.fill(op, l, st, c.Fill(slot, l, st.ready, true, st.prefetch, st.trigger))
		case 12:
			op = "MarkDirtyFill without fill"
			handled, _ := c.MarkDirtyFill(l, uint64(i))
			if _, ok := m.lines[l]; handled != ok {
				t.Fatalf("MarkDirtyFill(%v) handled=%v, resident=%v", l, handled, ok)
			}
			if handled {
				m.hit(l, true)
			}
		case 13, 14, 15, 16:
			op = "Lookup"
			ready, hit := c.Lookup(l)
			if st, ok := m.lines[l]; hit != ok || ready != st.ready {
				t.Fatalf("Lookup(%v) = %d, %v; model %+v, %v", l, ready, hit, st, ok)
			}
		case 17, 18:
			n := 1 + rng.Intn(cfg.Ways)
			op = fmt.Sprintf("SetDemandWays(%d)", n)
			c.SetDemandWays(n, func(ev Eviction) {
				if n >= m.ways {
					t.Fatalf("%s from %d ways evicted %+v", op, m.ways, ev)
				}
				m.evicted(op, ev)
			})
			m.ways = n
			for si := 0; si < cfg.Sets(); si++ {
				if got := m.inSet(si); got > n {
					t.Fatalf("%s left %d lines in set %d", op, got, si)
				}
			}
		case 19:
			if rng.Intn(10) != 0 {
				continue
			}
			op = "Reset"
			c.Reset()
			clear(m.lines)
			m.ways = cfg.Ways
			m.stats = Stats{}
		}
		m.verify(op)
	}
	if !m.maxHit {
		t.Fatal("the run never filled mem.MaxLine")
	}
}
