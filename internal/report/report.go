// Package report renders experiment results as aligned text tables and
// CSV — the output format of the pgasbench harness that regenerates the
// paper's figures as printed series.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of string cells with a header row.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	notes   []string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; it must have exactly len(Columns) cells.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, cells)
}

// AddNote appends a footnote printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, wd := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", wd))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// pad right-pads s to width (numbers read better right-aligned, but the
// harness prints mixed content; left alignment keeps it simple and diffable).
func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// CSV writes the table as comma-separated values (header first). Cells
// containing commas or quotes are quoted.
func (t *Table) CSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = csvEscape(c)
		}
		_, err := io.WriteString(w, strings.Join(parts, ",")+"\n")
		return err
	}
	if err := writeLine(t.Columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// MS formats simulated nanoseconds as milliseconds with sensible precision.
func MS(ns float64) string {
	ms := ns / 1e6
	switch {
	case ms >= 1000:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 10:
		return fmt.Sprintf("%.1f", ms)
	default:
		return fmt.Sprintf("%.3f", ms)
	}
}

// Ratio formats a speedup/slowdown factor.
func Ratio(x float64) string {
	switch {
	case x >= 100:
		return fmt.Sprintf("%.0fx", x)
	case x >= 10:
		return fmt.Sprintf("%.1fx", x)
	default:
		return fmt.Sprintf("%.2fx", x)
	}
}

// Count formats an integer with thousands separators.
func Count(v int64) string {
	s := fmt.Sprintf("%d", v)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// Markdown writes the table as a GitHub-flavored markdown table (with the
// title as a heading), the format EXPERIMENTS.md uses.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("### ")
		b.WriteString(t.Title)
		b.WriteString("\n\n")
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	b.WriteString("|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		b.WriteString("\n*")
		b.WriteString(n)
		b.WriteString("*\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
