package pmu

import (
	"testing"

	"prophet/internal/mem"
)

func TestAccuracy(t *testing.T) {
	c := NewCounters(1)
	pc := mem.Addr(0x400)
	for i := 0; i < 10; i++ {
		c.RecordIssue(pc)
	}
	for i := 0; i < 7; i++ {
		c.RecordUseful(pc)
	}
	if got := c.Accuracy(pc); got != 0.7 {
		t.Fatalf("Accuracy = %v, want 0.7", got)
	}
}

func TestAccuracyNoIssues(t *testing.T) {
	c := NewCounters(1)
	c.RecordL2Miss(1)
	if got := c.Accuracy(1); got != -1 {
		t.Fatalf("Accuracy with no issues = %v, want -1", got)
	}
	if got := c.Accuracy(999); got != -1 {
		t.Fatalf("Accuracy of unknown PC = %v, want -1", got)
	}
}

func TestZeroPCIgnored(t *testing.T) {
	c := NewCounters(1)
	c.RecordIssue(0)
	c.RecordUseful(0)
	c.RecordL2Miss(0)
	if len(c.PC) != 0 {
		t.Fatal("PC 0 must not be recorded (prefetch-generated traffic)")
	}
}

func TestAllocatedEntries(t *testing.T) {
	c := NewCounters(1)
	c.SetTableCounters(100, 30)
	if got := c.AllocatedEntries(); got != 70 {
		t.Fatalf("AllocatedEntries = %d, want 70", got)
	}
	c.SetTableCounters(10, 30)
	if got := c.AllocatedEntries(); got != 0 {
		t.Fatalf("AllocatedEntries = %d, want clamped 0", got)
	}
}

func TestSamplingApproximatesExact(t *testing.T) {
	exact := NewCounters(1)
	sampled := NewCounters(16)
	pc := mem.Addr(0x500)
	const n = 16000
	for i := 0; i < n; i++ {
		exact.RecordIssue(pc)
		sampled.RecordIssue(pc)
	}
	e := exact.PC[pc].Issued
	s := sampled.PC[pc].Issued
	if e != n {
		t.Fatalf("exact = %d", e)
	}
	if s < n*9/10 || s > n*11/10 {
		t.Fatalf("sampled estimate %d deviates >10%% from %d", s, n)
	}
}

func TestOverheadBytesTiny(t *testing.T) {
	c := NewCounters(1)
	for pc := mem.Addr(1); pc <= 100; pc++ {
		c.RecordL2Miss(pc)
	}
	// 100 PCs of counters must be a few KB — the Figure 2 "Counter ~B"
	// versus "Trace ~GB" contrast.
	if got := c.OverheadBytes(); got > 10*1024 {
		t.Fatalf("OverheadBytes = %d, want a few KB", got)
	}
}

func TestClone(t *testing.T) {
	c := NewCounters(1)
	c.RecordIssue(1)
	c.SetTableCounters(5, 2)
	d := c.Clone()
	d.RecordIssue(1)
	d.RecordIssue(2)
	if c.PC[1].Issued != 1 {
		t.Fatal("clone aliases per-PC counters")
	}
	if _, ok := c.PC[2]; ok {
		t.Fatal("clone aliases the PC map")
	}
	if d.Insertions != 5 || d.Replacements != 2 {
		t.Fatal("clone lost global counters")
	}
}
