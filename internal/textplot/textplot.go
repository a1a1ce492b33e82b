// Package textplot renders the experiment results as aligned ASCII tables
// and grouped bar charts, so every figure of the paper has a terminal
// representation from cmd/experiments.
package textplot

import (
	"fmt"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the aligned table text.
func (t Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named line of values in a chart.
type Series struct {
	Name   string
	Values []float64
}

// Chart renders a grouped horizontal bar chart: one block per label, one bar
// per series. Bars scale to the maximum value across all series.
func Chart(title string, labels []string, series []Series, width int) string {
	if width <= 0 {
		width = 40
	}
	max := 0.0
	for _, s := range series {
		for _, v := range s.Values {
			if v > max {
				max = v
			}
		}
	}
	if max == 0 {
		max = 1
	}
	nameW := 0
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteByte('\n')
	}
	for li, label := range labels {
		b.WriteString(label)
		b.WriteByte('\n')
		for _, s := range series {
			v := 0.0
			if li < len(s.Values) {
				v = s.Values[li]
			}
			n := int(v / max * float64(width))
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&b, "  %-*s |%s %.3f\n", nameW, s.Name, strings.Repeat("#", n), v)
		}
	}
	return b.String()
}

// F formats a float with 3 decimals (table cell helper).
func F(v float64) string { return fmt.Sprintf("%.3f", v) }
