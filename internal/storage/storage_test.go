package storage

import (
	"math"
	"strings"
	"testing"

	"prophet/internal/core"
	"prophet/internal/triangel"
)

func kbOf(items []Item, name string) float64 {
	for _, it := range items {
		if it.Name == name {
			return it.KB()
		}
	}
	return -1
}

// Section 5.10's exact numbers.
func TestProphetStorageMatchesPaper(t *testing.T) {
	items := Prophet(core.DefaultConfig())
	if got := kbOf(items, "Prophet replacement state"); got != 48 {
		t.Errorf("replacement state = %v KB, want 48", got)
	}
	if got := kbOf(items, "Hint buffer"); math.Abs(got-0.19) > 0.01 {
		t.Errorf("hint buffer = %v KB, want ~0.19", got)
	}
	if got := kbOf(items, "Multi-path Victim Buffer"); got != 344 {
		t.Errorf("MVB = %v KB, want 344", got)
	}
}

func TestTriageStorageMatchesPaper(t *testing.T) {
	items := Triage()
	if got := kbOf(items, "Hawkeye replacement state"); got != 13 {
		t.Errorf("Hawkeye = %v KB, want 13 (Section 2.1.2)", got)
	}
	if got := kbOf(items, "Bloom-filter resizer"); got != 200 {
		t.Errorf("Bloom = %v KB, want 200 (Section 2.1.3)", got)
	}
}

func TestTriangelStorage(t *testing.T) {
	items := Triangel(triangel.Default())
	if got := kbOf(items, "Set Dueller"); got != 2 {
		t.Errorf("Set Dueller = %v KB, want ~2", got)
	}
}

// TestGeometryReachesLedger: the rows follow the engines' configurations,
// so a geometry change shows in the storage table.
func TestGeometryReachesLedger(t *testing.T) {
	pcfg := core.DefaultConfig()
	pcfg.MVBEntries *= 2
	if got := kbOf(Prophet(pcfg), "Multi-path Victim Buffer"); got != 2*344 {
		t.Errorf("MVB at %d entries = %v KB, want %v", pcfg.MVBEntries, got, 2*344)
	}
	pcfg = core.DefaultConfig()
	pcfg.Table.MaxWays = 4
	if got := kbOf(Prophet(pcfg), "Prophet replacement state"); got != 24 {
		t.Errorf("Prophet replacement state at 4 ways = %v KB, want 24", got)
	}
	tcfg := triangel.Default()
	tcfg.Table.MaxWays = 4
	if got := kbOf(Triangel(tcfg), "SRRIP replacement state"); got != 24 {
		t.Errorf("Triangel SRRIP state at 4 ways = %v KB, want 24", got)
	}
}

func TestTotalKB(t *testing.T) {
	total := TotalKB(Prophet(core.DefaultConfig()))
	if math.Abs(total-(48+0.19+344)) > 0.01 {
		t.Errorf("Prophet total = %v KB", total)
	}
}

func TestItemString(t *testing.T) {
	s := Item{Name: "x", Bits: 8192}.String()
	if !strings.Contains(s, "1.00 KB") {
		t.Errorf("Item.String = %q", s)
	}
}
