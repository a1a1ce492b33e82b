// Package storage accounts the hardware storage overhead of every scheme,
// reproducing Section 5.10 and the related-work numbers of Section 2.1.
// Prophet's and Triangel's rows are computed from the engines' own
// configurations, so a geometry change shows in the table. At the
// evaluated configurations they come to:
//
//   - Prophet: 48KB replacement state (196,608 entries x 2 bits), 0.19KB
//     hint buffer (128 entries), 344KB Multi-path Victim Buffer (65,536
//     entries x 43 bits);
//   - Triangel: 48KB SRRIP state, ~2KB Set Dueller, 11KB per-PC training
//     state.
//
// Triage's rows are the sizes Section 2.1 cites: ~13KB Hawkeye replacement
// state and >200KB Bloom-filter resizing (tracking ~200,000 entries).
package storage

import (
	"fmt"

	"prophet/internal/core"
	"prophet/internal/temporal"
	"prophet/internal/triangel"
)

// Item is one storage structure.
type Item struct {
	Name string
	Bits int
}

// KB returns the item size in kilobytes.
func (i Item) KB() float64 { return float64(i.Bits) / 8 / 1024 }

// String formats the item.
func (i Item) String() string { return fmt.Sprintf("%s: %.2f KB", i.Name, i.KB()) }

// TotalKB sums a structure list.
func TotalKB(items []Item) float64 {
	total := 0.0
	for _, it := range items {
		total += it.KB()
	}
	return total
}

const (
	// hintSlotBits is one hint-buffer slot: a PC tag (~9 bits) and the
	// 3-bit hint, ≈ 0.19KB over 128 slots.
	hintSlotBits = 12
	// trainingSlotBits is one Triangel training-unit entry with its
	// confidences: ~64-bit last address, two 4-bit counters and a tag.
	trainingSlotBits = 88

	// Section 2.1's cited sizes, which the simulated engines do not model.
	triageHawkeyeBits = 13 * 1024 * 8  // Hawkeye predictor (Section 2.1.2: 13KB)
	triageBloomBits   = 200 * 1024 * 8 // Bloom-filter resizer (Section 2.1.3: >200KB)
	setDuellerBits    = 2 * 1024 * 8   // Triangel's Set Dueller (Section 2.1.3: ~2KB)
)

// Prophet returns Prophet's storage items (Section 5.10) at cfg's geometry.
func Prophet(cfg core.Config) []Item {
	return []Item{
		{Name: "Prophet replacement state", Bits: cfg.Table.MaxEntries() * core.PriorityBits},
		{Name: "Hint buffer", Bits: cfg.HintBufferEntries * hintSlotBits},
		{Name: "Multi-path Victim Buffer", Bits: cfg.MVBEntries * core.MVBEntryBits},
	}
}

// Triage returns Triage's management-structure storage as Section 2.1
// cites it. The modelled Triage keeps neither structure, so these rows are
// paper citations, not sizes of the simulated engine.
func Triage() []Item {
	return []Item{
		{Name: "Hawkeye replacement state", Bits: triageHawkeyeBits},
		{Name: "Bloom-filter resizer", Bits: triageBloomBits},
	}
}

// Triangel returns Triangel's management-structure storage at cfg's
// geometry.
func Triangel(cfg triangel.Config) []Item {
	return []Item{
		{Name: "SRRIP replacement state", Bits: cfg.Table.MaxEntries() * temporal.RRPVBits},
		{Name: "Set Dueller", Bits: setDuellerBits},
		{Name: "Training unit + confidences", Bits: triangel.TrainingEntries * trainingSlotBits},
	}
}
