package temporal

import "testing"

func hawkeyeTable() *Table {
	cfg := TableConfig{Sets: 16, EntriesPerWay: 2, MaxWays: 2, Policy: MetaHawkeye}
	return NewTable(cfg, 2) // 4 entries per set
}

func TestHawkeyePrematureEvictionProtects(t *testing.T) {
	tb := hawkeyeTable()
	// Fill set 0 (sources 0,16,32,48 -> distinct tags 0..3).
	for i := 0; i < 4; i++ {
		tb.Insert(uint32(16*i), uint32(i+1), 0)
	}
	// Evict source 0 by inserting a fifth tag.
	ev := tb.Insert(64, 99, 0)
	if !ev.Valid {
		t.Fatal("no eviction from full set")
	}
	// Reinsert the evicted source: Hawkeye classifies it friendly
	// (premature eviction) and inserts protected.
	tb.Insert(ev.Src, 42, 0)
	// Churn: cache-averse inserts (never-seen tags) must be evicted
	// before the protected entry.
	for i := 10; i < 14; i++ {
		tb.Insert(uint32(16*i), uint32(i), 0)
	}
	if got, ok := tb.Peek(ev.Src); !ok || got != 42 {
		t.Fatalf("protected entry evicted by cache-averse churn (got %v ok=%v)", got, ok)
	}
}

func TestHawkeyeAverseInsertsYieldQuickly(t *testing.T) {
	tb := hawkeyeTable()
	// Promote four entries via hits so they are all protected.
	for i := 0; i < 4; i++ {
		tb.Insert(uint32(16*i), uint32(i+1), 0)
		tb.Lookup(uint32(16 * i))
	}
	// A stream of unknown tags churns through; after each insert the
	// newcomer itself (rrpv=max) should be the next victim, so the four
	// promoted entries survive the whole stream.
	for i := 20; i < 40; i++ {
		tb.Insert(uint32(16*i), uint32(i), 0)
	}
	survivors := 0
	for i := 0; i < 4; i++ {
		if _, ok := tb.Peek(uint32(16 * i)); ok {
			survivors++
		}
	}
	if survivors < 3 {
		t.Fatalf("only %d/4 promoted entries survived an averse scan", survivors)
	}
}

func TestHawkeyeGhostListBounded(t *testing.T) {
	h := newHawkeyeState()
	for i := 0; i < 100; i++ {
		h.observeEviction(0, uint16(i))
	}
	if got := len(h.ghosts[0]); got != hawkeyeGhosts {
		t.Fatalf("ghost list length %d, want %d", got, hawkeyeGhosts)
	}
	// Only the most recent ghosts are remembered.
	if !h.friendly(0, 99) {
		t.Fatal("most recent ghost forgotten")
	}
	if h.friendly(0, 0) {
		t.Fatal("ancient ghost remembered")
	}
	// friendly consumes the ghost.
	if h.friendly(0, 99) {
		t.Fatal("ghost not consumed on match")
	}
}

func TestHawkeyePolicyName(t *testing.T) {
	if MetaHawkeye.String() != "meta-hawkeye" {
		t.Error("policy name")
	}
}
