package textplot

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := Table{Title: "demo", Columns: []string{"a", "bbbb"}}
	tb.AddRow("x", "1")
	tb.AddRow("longer", "2")
	out := tb.Render()
	if !strings.Contains(out, "demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	// Column alignment: header and rows share prefix width.
	if !strings.HasPrefix(lines[3], "x      ") {
		t.Errorf("row not padded to widest cell: %q", lines[3])
	}
}

func TestChartScalesToMax(t *testing.T) {
	out := Chart("c", []string{"l1", "l2"}, []Series{
		{Name: "s", Values: []float64{1, 2}},
	}, 10)
	if !strings.Contains(out, strings.Repeat("#", 10)+" 2.000") {
		t.Errorf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, strings.Repeat("#", 5)+" 1.000") {
		t.Errorf("half bar wrong:\n%s", out)
	}
}

func TestChartHandlesZeroAndMissing(t *testing.T) {
	out := Chart("", []string{"a", "b"}, []Series{{Name: "s", Values: []float64{0}}}, 10)
	if !strings.Contains(out, "| 0.000") {
		t.Errorf("zero bar: %s", out)
	}
	// Label b has no value: renders 0 without panicking.
	if !strings.Contains(out, "b\n") {
		t.Error("missing label block")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Errorf("F = %q", F(1.23456))
	}
}
