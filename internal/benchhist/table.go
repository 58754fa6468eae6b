package benchhist

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"phasetune/internal/textplot"
)

// Table is one printed result table: what a campaign prints and what a
// `table` history entry records, drawn by one function (Render).
type Table struct {
	// Title is the caption printed above the table after a blank line;
	// a campaign's first table usually has none. A table with a title and
	// no columns is a one-line note.
	Title   string   `json:"title,omitempty"`
	Columns []Column `json:"columns,omitempty"`
	Rows    [][]Cell `json:"rows,omitempty"` // one cell per column
	// Chart, when set, draws the rows as a chart instead of a grid.
	Chart *Chart `json:"chart,omitempty"`
}

// Column is one table column.
type Column struct {
	// Name is the printed header.
	Name string `json:"name"`
	// Unit is the unit of the column's numbers ("" for labels).
	Unit string `json:"unit,omitempty"`
	// Format is the fmt verb number cells print with (%g when empty);
	// label cells print verbatim.
	Format string `json:"format,omitempty"`
}

// Col returns a column; label columns take an empty unit and format.
func Col(name, unit, format string) Column {
	return Column{Name: name, Unit: unit, Format: format}
}

// Cell is one table value: a label, or numbers. A number cell usually
// holds one value; a per-group vector holds several, printed joined by
// "/". On the wire a label is a JSON string, one number a JSON number and
// several an array; NaN is written as NoData.
type Cell struct {
	Label string
	Nums  []float64
}

// MarshalJSON implements json.Marshaler.
func (c Cell) MarshalJSON() ([]byte, error) {
	switch {
	case c.Label != "":
		return json.Marshal(c.Label)
	case len(c.Nums) == 1:
		return json.Marshal(SanitizeNaNs(c.Nums)[0])
	}
	return json.Marshal(SanitizeNaNs(c.Nums))
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Cell) UnmarshalJSON(b []byte) error {
	switch {
	case len(b) > 0 && b[0] == '"':
		return json.Unmarshal(b, &c.Label)
	case len(b) > 0 && (b[0] == '[' || b[0] == 'n'):
		return json.Unmarshal(b, &c.Nums)
	}
	c.Nums = make([]float64, 1)
	return json.Unmarshal(b, &c.Nums[0])
}

// format prints the cell with its column's verb.
func (c Cell) format(verb string) string {
	if c.Label != "" {
		return c.Label
	}
	if verb == "" {
		verb = "%g"
	}
	parts := make([]string, len(c.Nums))
	for i, v := range c.Nums {
		parts[i] = fmt.Sprintf(verb, v)
	}
	return strings.Join(parts, "/")
}

// AddRow appends one row. Each value is a string (a label), a float64,
// int or uint64 (a number), or a []float64 (a per-group vector).
func (t *Table) AddRow(vals ...any) {
	row := make([]Cell, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case string:
			row[i] = Cell{Label: v}
		case float64:
			row[i] = Cell{Nums: []float64{v}}
		case int:
			row[i] = Cell{Nums: []float64{float64(v)}}
		case uint64:
			row[i] = Cell{Nums: []float64{float64(v)}}
		case []float64:
			row[i] = Cell{Nums: v}
		default:
			panic(fmt.Sprintf("benchhist: cell of type %T", v))
		}
	}
	t.Rows = append(t.Rows, row)
}

// Chart kinds: the four charts campaigns draw, each reading its labels
// from the first column. A heatmap draws (row key, column key, value) rows
// as a grid with a break-even band of ±Tolerance, its corner label made of
// the first two column names; a quantile strip draws (name, p50, p95, p99,
// p999) rows on a shared axis, negative quantiles (NoData) reading as no
// samples; bars draw (name, value) rows; stacked bars draw each row as one
// composition bar whose segments are the remaining columns.
const (
	ChartHeatmap       = "heatmap"
	ChartQuantileStrip = "quantile-strip"
	ChartBars          = "bars"
	ChartStackedBars   = "stacked-bars"
)

// Chart is a table's chart hint.
type Chart struct {
	Kind string `json:"kind"`
	// Tolerance is the heatmap's break-even band.
	Tolerance float64 `json:"tolerance,omitempty"`
}

// chartWidth is the bar width every chart draws at.
const chartWidth = 48

// Render writes the tables in order: each title as a caption after a blank
// line, then the table's chart if it has one, else its grid. cmd/experiments
// prints every campaign through it and benchjson -history redraws recorded
// tables with it.
func Render(w io.Writer, tables []Table) error {
	var b strings.Builder
	for _, t := range tables {
		if t.Title != "" {
			fmt.Fprintf(&b, "\n%s\n", t.Title)
		}
		if len(t.Columns) > 0 {
			b.WriteString(t.draw())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// chartColumns is how many columns each chart reads.
var chartColumns = map[string]int{ChartHeatmap: 3, ChartQuantileStrip: 5, ChartBars: 2, ChartStackedBars: 2}

// draw renders the table body: its chart, or the grid for tables without
// one (or with a chart this build cannot draw from the columns given).
func (t Table) draw() string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	labels := t.labels(0)
	// vals[c][r] is the first number of cell (r, c+1), NaN when absent.
	vals := make([][]float64, len(t.Columns)-1)
	for c := range vals {
		for _, row := range t.Rows {
			v := math.NaN()
			if c+1 < len(row) && len(row[c+1].Nums) > 0 {
				v = row[c+1].Nums[0]
			}
			vals[c] = append(vals[c], v)
		}
	}
	kind := ""
	if t.Chart != nil && chartColumns[t.Chart.Kind] > 0 && len(t.Columns) >= chartColumns[t.Chart.Kind] {
		kind = t.Chart.Kind
	}
	switch kind {
	case ChartBars:
		return textplot.Bars(labels, vals[0], chartWidth)
	case ChartQuantileStrip:
		for _, q := range vals[:4] {
			for r, v := range q {
				if v < 0 { // NoData
					q[r] = math.NaN()
				}
			}
		}
		return textplot.QuantileStrip(labels, vals[0], vals[1], vals[2], vals[3], chartWidth)
	case ChartStackedBars:
		segs := make([][]float64, len(t.Rows))
		for r := range segs {
			for _, v := range vals {
				segs[r] = append(segs[r], v[r])
			}
		}
		return textplot.StackedBars(labels, names[1:], segs, chartWidth)
	case ChartHeatmap:
		rowLabels, rowAt := distinct(labels)
		colLabels, colAt := distinct(t.labels(1))
		grid := make([][]float64, len(rowLabels))
		for i := range grid {
			for range colLabels {
				grid[i] = append(grid[i], math.NaN())
			}
		}
		for r := range t.Rows {
			grid[rowAt[r]][colAt[r]] = vals[1][r]
		}
		return textplot.Heatmap(names[0]+`\`+names[1], rowLabels, colLabels, grid, t.Chart.Tolerance)
	}
	grid := textplot.NewTable(names...)
	for _, row := range t.Rows {
		cells := make([]string, 0, len(row))
		for i := 0; i < len(row) && i < len(t.Columns); i++ {
			cells = append(cells, row[i].format(t.Columns[i].Format))
		}
		grid.AddRow(cells...)
	}
	return grid.String()
}

// labels formats column c of every row.
func (t Table) labels(c int) []string {
	out := make([]string, len(t.Rows))
	for r, row := range t.Rows {
		if c < len(row) {
			out[r] = row[c].format(t.Columns[c].Format)
		}
	}
	return out
}

// distinct returns the distinct keys in first-appearance order, and for
// each key its index among them.
func distinct(keys []string) (uniq []string, at []int) {
	index := map[string]int{}
	for _, k := range keys {
		i, ok := index[k]
		if !ok {
			i = len(uniq)
			index[k] = i
			uniq = append(uniq, k)
		}
		at = append(at, i)
	}
	return uniq, at
}
