package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-column text table for experiment and command
// output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Write renders the table with aligned columns. A row wider than the header
// gets columns of its own; the header and separator stop at the header.
func (t *Table) Write(w io.Writer) {
	var widths []int
	for _, r := range append([][]string{t.Header}, t.Rows...) {
		for i, c := range r {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(c))
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
}
