// Package textplot renders experiment results as ASCII tables, box plots,
// and log-scale bar charts for terminal output and EXPERIMENTS.md.
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Table renders rows with left-aligned first column and right-aligned rest.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.header) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", width[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range width {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// BoxPlot renders horizontal five-number-summary boxes on a shared axis.
//
//	name  |----[==|==]------|  min q1 med q3 max
func BoxPlot(names []string, mins, q1s, meds, q3s, maxs []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range names {
		lo = math.Min(lo, mins[i])
		hi = math.Max(hi, maxs[i])
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	scale := func(v float64) int {
		p := int(float64(width-1) * (v - lo) / (hi - lo))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	var b strings.Builder
	for i, n := range names {
		line := make([]byte, width)
		for j := range line {
			line[j] = ' '
		}
		pMin, pQ1, pMed, pQ3, pMax := scale(mins[i]), scale(q1s[i]), scale(meds[i]), scale(q3s[i]), scale(maxs[i])
		for j := pMin; j <= pMax; j++ {
			line[j] = '-'
		}
		for j := pQ1; j <= pQ3; j++ {
			line[j] = '='
		}
		line[pMin] = '|'
		line[pMax] = '|'
		line[pMed] = 'M'
		fmt.Fprintf(&b, "%-*s %s  min=%.3f med=%.3f max=%.3f\n", nameW, n, string(line), mins[i], meds[i], maxs[i])
	}
	return b.String()
}

// QuantileStrip renders latency quantiles on a shared horizontal axis, one
// row per name: a '-' run from p50 to p999 with markers M (p50), o (p95),
// * (p99), and # (p999). NaN rows (no completed jobs) render "(no samples)".
//
//	name  M---o--*------#  p50=1.20 p99=4.51 p999=7.80
func QuantileStrip(names []string, p50s, p95s, p99s, p999s []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range names {
		if math.IsNaN(p50s[i]) {
			continue
		}
		lo = math.Min(lo, p50s[i])
		hi = math.Max(hi, p999s[i])
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	scale := func(v float64) int {
		p := int(float64(width-1) * (v - lo) / (hi - lo))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	var b strings.Builder
	for i, n := range names {
		if math.IsNaN(p50s[i]) {
			fmt.Fprintf(&b, "%-*s %-*s\n", nameW, n, width, "(no samples)")
			continue
		}
		line := make([]byte, width)
		for j := range line {
			line[j] = ' '
		}
		p50, p95, p99, p999 := scale(p50s[i]), scale(p95s[i]), scale(p99s[i]), scale(p999s[i])
		for j := p50; j <= p999; j++ {
			line[j] = '-'
		}
		line[p50] = 'M'
		line[p95] = 'o'
		line[p99] = '*'
		line[p999] = '#'
		fmt.Fprintf(&b, "%-*s %s  p50=%.2f p99=%.2f p999=%.2f\n",
			nameW, n, string(line), p50s[i], p99s[i], p999s[i])
	}
	return b.String()
}

// Bars renders a linear-scale horizontal bar chart, scaled to the maximum
// value. Zero or negative values render as an empty bar.
func Bars(names []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	maxV := 0.0
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	var b strings.Builder
	for i, n := range names {
		bar := ""
		if values[i] > 0 {
			bar = strings.Repeat("#", int(float64(width)*values[i]/maxV))
		}
		fmt.Fprintf(&b, "%-*s %-*s %.3g\n", nameW, n, width, bar, values[i])
	}
	return b.String()
}

// LogBars renders a log10-scale horizontal bar chart (Fig. 5 style). Zero
// or negative values render as an empty bar.
func LogBars(names []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	maxLog := 0.0
	for _, v := range values {
		if v > 0 {
			if l := math.Log10(v); l > maxLog {
				maxLog = l
			}
		}
	}
	if maxLog == 0 {
		maxLog = 1
	}
	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	var b strings.Builder
	for i, n := range names {
		bar := ""
		label := "0"
		if values[i] > 0 {
			l := math.Log10(values[i])
			if l < 0 {
				l = 0
			}
			bar = strings.Repeat("#", int(float64(width)*l/maxLog))
			label = fmt.Sprintf("%.3g", values[i])
		}
		fmt.Fprintf(&b, "%-*s %-*s %s\n", nameW, n, width, bar, label)
	}
	return b.String()
}

// Series renders an x/y sweep as aligned columns with a small bar. Bars
// are clamped to [0, width], so a non-finite y cannot make one negative.
func Series(xLabel, yLabel string, xs, ys []float64, width int) string {
	if width <= 0 {
		width = 40
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10s  %10s\n", xLabel, yLabel)
	for i := range xs {
		n := int(float64(width) * (ys[i] - lo) / (hi - lo))
		fmt.Fprintf(&b, "%10.3g  %10.3g  %s\n", xs[i], ys[i], strings.Repeat("*", min(max(n, 0), width)))
	}
	return b.String()
}

// Heatmap renders a labeled grid of signed values (rows × cols) with each
// cell's number followed by a shade glyph. tol is the break-even
// tolerance: cells within ±tol render '=' — the visible break-even band —
// and a '|' replaces the glyph where a row falls out of the hold zone
// (current cell ≥ −tol, next cell < −tol). Cells clearly above shade
// '+'/'#' by magnitude, cells clearly below ':'/'.', so the band
// structure reads at a glance even where the numbers are small. vals must
// be rectangular: len(vals) == len(rowLabels), len(vals[r]) ==
// len(colLabels). tol <= 0 means a strict zero break-even.
func Heatmap(corner string, rowLabels, colLabels []string, vals [][]float64, tol float64) string {
	shade := func(v float64) byte {
		switch {
		case v >= -tol && v <= tol:
			return '='
		case v > 4*tol:
			return '#'
		case v > 0:
			return '+'
		case v < -4*tol:
			return '.'
		}
		return ':'
	}

	rowW := len(corner)
	for _, l := range rowLabels {
		if len(l) > rowW {
			rowW = len(l)
		}
	}
	const cellW = 8 // "%+6.1f" + shade glyph + space
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", rowW, corner)
	for _, l := range colLabels {
		fmt.Fprintf(&b, " %*s", cellW-1, l)
	}
	b.WriteByte('\n')
	for r, row := range vals {
		fmt.Fprintf(&b, "%-*s", rowW, rowLabels[r])
		for c, v := range row {
			glyph := shade(v)
			if v >= -tol && c+1 < len(row) && row[c+1] < -tol {
				glyph = '|'
			}
			fmt.Fprintf(&b, " %+6.1f%c", v, glyph)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "legend: '=' break-even (within ±%.1f), +/# above, :/. below; '|' marks where a row falls off the break-even band\n", tol)
	return b.String()
}

// Waterfall renders signed per-category deltas as bars around a shared
// zero axis — the where-did-the-difference-go view of a run diff. Negative
// deltas extend left with '<', positive right with '>', all on one scale
// (the largest magnitude fills half the width).
//
//	useful     <<<<<<<|        -123.4 ms
//	asymmetry         |>>>      +56.7 ms
func Waterfall(labels []string, deltas []float64, unit string, width int) string {
	if width <= 0 {
		width = 60
	}
	half := width / 2
	if half < 1 {
		half = 1
	}
	maxAbs := 0.0
	for _, d := range deltas {
		if a := math.Abs(d); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	for i, l := range labels {
		line := make([]byte, 2*half+1)
		for j := range line {
			line[j] = ' '
		}
		line[half] = '|'
		n := int(math.Round(float64(half) * math.Abs(deltas[i]) / maxAbs))
		switch {
		case deltas[i] < 0:
			for j := half - n; j < half; j++ {
				line[j] = '<'
			}
		case deltas[i] > 0:
			for j := half + 1; j <= half+n; j++ {
				line[j] = '>'
			}
		}
		fmt.Fprintf(&b, "%-*s %s  %+.4g %s\n", labelW, l, string(line), deltas[i], unit)
	}
	return b.String()
}

// stackGlyphs is the segment palette shared by every stacked bar: segment
// k renders glyph k (wrapping past the palette end).
const stackGlyphs = "#=+o*:~@."

// StackedBars renders one composition bar per row: each row's segment
// values (all non-negative) tile a bar in segment order, every bar on a
// shared scale (the largest row total fills the width). A trailing legend
// maps glyphs to segment names. vals must be rectangular:
// len(vals) == len(rows), len(vals[r]) == len(segments).
//
//	static  ####===+oo  12.3
//	hybrid  #####==+o   11.8
//	legend: '#' useful  '=' asymmetry  ...
func StackedBars(rows, segments []string, vals [][]float64, width int) string {
	if width <= 0 {
		width = 60
	}
	maxTotal := 0.0
	for _, row := range vals {
		total := 0.0
		for _, v := range row {
			if v > 0 {
				total += v
			}
		}
		if total > maxTotal {
			maxTotal = total
		}
	}
	if maxTotal == 0 {
		maxTotal = 1
	}
	rowW := 0
	for _, r := range rows {
		if len(r) > rowW {
			rowW = len(r)
		}
	}
	var b strings.Builder
	for r, name := range rows {
		total := 0.0
		var bar []byte
		// Tile by cumulative position so rounding never over- or
		// under-fills: segment k ends at round(width x cum_k / maxTotal).
		for s, v := range vals[r] {
			if v <= 0 {
				continue
			}
			total += v
			end := int(math.Round(float64(width) * total / maxTotal))
			for len(bar) < end {
				bar = append(bar, stackGlyphs[s%len(stackGlyphs)])
			}
		}
		fmt.Fprintf(&b, "%-*s %-*s %.4g\n", rowW, name, width, string(bar), total)
	}
	b.WriteString("legend:")
	for s, seg := range segments {
		fmt.Fprintf(&b, " '%c' %s", stackGlyphs[s%len(stackGlyphs)], seg)
	}
	b.WriteByte('\n')
	return b.String()
}
