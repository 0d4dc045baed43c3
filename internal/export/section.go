package export

import (
	"fmt"
	"strings"
)

// Section is one experiment's rendered result: a heading, an ordered body of
// text lines, tables and plots, and an optional CSV series. Text and
// Markdown are its two printers, so the terminal and a markdown report show
// the same lines, tables and plots.
type Section struct {
	Heading string
	Blocks  []Block
	// CSVName names the optional CSV series (written as <CSVName>.csv).
	CSVName string
	CSV     *Table
}

// Block is one body element of a Section: exactly one of Line, Table and
// Plot is set.
type Block struct {
	Line  string // one line of prose, without its newline
	Table *Table
	Plot  *Plot
}

// Linef appends one line of prose, formatted with fmt.Sprintf.
func (s *Section) Linef(format string, args ...any) {
	s.Blocks = append(s.Blocks, Block{Line: fmt.Sprintf(format, args...)})
}

// AddTable appends a table.
func (s *Section) AddTable(t *Table) { s.Blocks = append(s.Blocks, Block{Table: t}) }

// AddPlot appends a plot.
func (s *Section) AddPlot(p *Plot) { s.Blocks = append(s.Blocks, Block{Plot: p}) }

// Text prints the section for a terminal: a rule and the heading (when
// set), then the body with tables and plots drawn by their Render, then a
// blank line.
func Text(s Section) string {
	var b strings.Builder
	if s.Heading != "" {
		b.WriteString(strings.Repeat("=", 90) + "\n" + s.Heading + "\n\n")
	}
	for _, blk := range s.Blocks {
		switch {
		case blk.Table != nil:
			b.WriteString(blk.Table.Render())
		case blk.Plot != nil:
			b.WriteString(blk.Plot.Render())
		default:
			b.WriteString(blk.Line + "\n")
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Markdown prints the section as GitHub-flavored markdown: the heading as a
// level-2 heading, consecutive lines as one paragraph, tables via
// Table.Markdown and plots in code fences.
func Markdown(s Section) string {
	var b strings.Builder
	if s.Heading != "" {
		b.WriteString("## " + s.Heading + "\n\n")
	}
	for i, blk := range s.Blocks {
		switch {
		case blk.Table != nil:
			b.WriteString(blk.Table.Markdown() + "\n")
		case blk.Plot != nil:
			b.WriteString("```\n" + blk.Plot.Render() + "```\n\n")
		default:
			b.WriteString(blk.Line + "\n")
			if next := i + 1; next == len(s.Blocks) || s.Blocks[next].Table != nil || s.Blocks[next].Plot != nil {
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}
