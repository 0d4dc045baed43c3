package export

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Name", "Value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Name") || !strings.Contains(lines[0], "Value") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.50") {
		t.Errorf("row line = %q", lines[2])
	}
	if !strings.Contains(lines[3], "42") {
		t.Errorf("int row = %q", lines[3])
	}
	// Columns must align: "Value" column starts at the same offset everywhere.
	idx := strings.Index(lines[0], "Value")
	if !strings.HasPrefix(lines[2][idx:], "1.50") {
		t.Errorf("column misaligned:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("A")
	tb.AddRow("x", "extra")
	out := tb.Render()
	if !strings.Contains(out, "extra") {
		t.Errorf("ragged cell dropped:\n%s", out)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("1", "two, with comma")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got := buf.String()
	want := "a,b\n1,\"two, with comma\"\n"
	if got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.1234); got != "12.34%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Percent(0); got != "0.00%" {
		t.Errorf("Percent(0) = %q", got)
	}
}

func TestPlotRender(t *testing.T) {
	p := Plot{Title: "test plot", XLabel: "x", YLabel: "y", Width: 40, Height: 10}
	p.Add("up", '*', []XY{{0, 0}, {1, 1}, {2, 2}})
	p.Add("down", 'o', []XY{{0, 2}, {2, 0}})
	out := p.Render()
	if !strings.Contains(out, "test plot") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("missing glyphs")
	}
	if !strings.Contains(out, "legend: *=up  o=down") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "x: x   y: y") {
		t.Error("missing axis labels")
	}
	// Corner values rendered on the axes.
	if !strings.Contains(out, "0") || !strings.Contains(out, "2") {
		t.Error("missing axis extremes")
	}
}

func TestPlotEmpty(t *testing.T) {
	p := Plot{Title: "empty"}
	out := p.Render()
	if !strings.Contains(out, "(no data)") {
		t.Errorf("empty plot = %q", out)
	}
}

func TestPlotIgnoresNaN(t *testing.T) {
	p := Plot{Width: 20, Height: 5}
	p.Add("s", '#', []XY{{math.NaN(), 1}, {1, math.NaN()}, {1, 1}})
	out := p.Render()
	if strings.Contains(out, "(no data)") {
		t.Error("valid point ignored")
	}
}

func TestPlotDegenerateRange(t *testing.T) {
	p := Plot{Width: 20, Height: 5}
	p.Add("s", '#', []XY{{1, 1}, {1, 1}})
	out := p.Render()
	if !strings.Contains(out, "#") {
		t.Errorf("single-point plot missing glyph:\n%s", out)
	}
}

func TestPlotDefaults(t *testing.T) {
	p := Plot{}
	p.Add("s", '.', []XY{{0, 0}, {10, 10}})
	out := p.Render()
	lines := strings.Split(out, "\n")
	// 20 canvas rows + axis + labels + legend.
	if len(lines) < 22 {
		t.Errorf("default-size plot too small: %d lines", len(lines))
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x", "with|pipe")
	md := tb.Markdown()
	want := "| a | b |\n| --- | --- |\n| x | with\\|pipe |\n"
	if md != want {
		t.Errorf("Markdown = %q, want %q", md, want)
	}
}

func TestSectionPrinters(t *testing.T) {
	tb := NewTable("k", "v")
	tb.AddRow("a", "1")
	p := &Plot{Title: "curve", Width: 8, Height: 3}
	p.Add("s", '*', []XY{{0, 0}, {1, 1}})
	s := Section{Heading: "HEAD"}
	s.Linef("intro %d", 1)
	s.AddTable(tb)
	s.Linef("first")
	s.Linef("second")
	s.AddPlot(p)

	wantText := strings.Repeat("=", 90) + "\nHEAD\n\nintro 1\n" + tb.Render() + "first\nsecond\n" + p.Render() + "\n"
	if got := Text(s); got != wantText {
		t.Errorf("Text:\n%s\nwant:\n%s", got, wantText)
	}
	wantMD := "## HEAD\n\nintro 1\n\n" + tb.Markdown() + "\nfirst\nsecond\n\n```\n" + p.Render() + "```\n\n"
	if got := Markdown(s); got != wantMD {
		t.Errorf("Markdown:\n%s\nwant:\n%s", got, wantMD)
	}
	if got := Text(Section{}); got != "\n" {
		t.Errorf("Text of an empty section = %q, want a blank line", got)
	}
}
