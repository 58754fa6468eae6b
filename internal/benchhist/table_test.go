package benchhist

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"phasetune/internal/textplot"
)

func render(t *testing.T, tables ...Table) string {
	t.Helper()
	var b bytes.Buffer
	if err := Render(&b, tables); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRenderGridFormatsCells(t *testing.T) {
	tb := Table{Title: "caption", Columns: []Column{Col("machine", "", ""),
		Col("tput%", "%", "%+.2f"), Col("shares", "share", "%.2f"), Col("ratio", "ratio", "")}}
	tb.AddRow("quad", 1.234, []float64{0.25, 0.75}, "-")
	tb.AddRow("hex", math.NaN(), []float64(nil), 2)
	want := textplot.NewTable("machine", "tput%", "shares", "ratio")
	want.AddRow("quad", "+1.23", "0.25/0.75", "-")
	want.AddRow("hex", "+NaN", "", "2")
	note := Table{Title: "a one-line note"}
	if got := render(t, tb, note); got != "\ncaption\n"+want.String()+"\na one-line note\n" {
		t.Errorf("grid rendered as\n%s", got)
	}
}

func TestRenderChartsMatchTextplot(t *testing.T) {
	names := []string{"none", "static"}
	heat := Table{Columns: []Column{Col("rate", "alternations", "alt.x%.0f"), Col("win", "instr", "%.0f"),
		Col("delta", "pp", "%+.2f")}, Chart: &Chart{Kind: ChartHeatmap, Tolerance: 0.5}}
	for _, c := range []struct {
		alt, win int
		delta    float64
	}{{4, 2000, 1}, {4, 8000, -0.2}, {64, 2000, -3}, {64, 8000, -8}} {
		heat.AddRow(c.alt, c.win, c.delta)
	}
	strip := Table{Columns: []Column{Col("policy", "", ""), Col("p50", "s", "%.2f"), Col("p95", "s", "%.2f"),
		Col("p99", "s", "%.2f"), Col("p999", "s", "%.2f")}, Chart: &Chart{Kind: ChartQuantileStrip}}
	strip.AddRow("none", 1.0, 2.0, 3.0, 4.0)
	strip.AddRow("static", float64(NoData), float64(NoData), float64(NoData), float64(NoData))
	bars := Table{Columns: []Column{Col("policy", "", ""), Col("max-share", "share", "%.3f")},
		Chart: &Chart{Kind: ChartBars}}
	bars.AddRow("none", 0.5)
	bars.AddRow("static", 1.0)
	stacked := Table{Columns: []Column{Col("policy", "", ""), Col("useful", "%", "%.2f"), Col("idle", "%", "%.2f")},
		Chart: &Chart{Kind: ChartStackedBars}}
	stacked.AddRow("none", 60.0, 40.0)
	stacked.AddRow("static", 70.0, 30.0)

	nan := math.NaN()
	for _, tc := range []struct {
		name  string
		table Table
		want  string
	}{
		{"heatmap", heat, textplot.Heatmap(`rate\win`, []string{"alt.x4", "alt.x64"}, []string{"2000", "8000"},
			[][]float64{{1, -0.2}, {-3, -8}}, 0.5)},
		{"strip", strip, textplot.QuantileStrip(names, []float64{1, nan}, []float64{2, nan},
			[]float64{3, nan}, []float64{4, nan}, chartWidth)},
		{"bars", bars, textplot.Bars(names, []float64{0.5, 1}, chartWidth)},
		{"stacked", stacked, textplot.StackedBars(names, []string{"useful", "idle"},
			[][]float64{{60, 40}, {70, 30}}, chartWidth)},
	} {
		if got := render(t, tc.table); got != tc.want {
			t.Errorf("%s rendered as\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

// TestRenderSurvivesMalformedTables pins that a recorded table this build
// cannot chart still draws, as a grid, without panicking.
func TestRenderSurvivesMalformedTables(t *testing.T) {
	ragged := Table{Columns: []Column{Col("a", "", ""), Col("b", "", "%.1f")},
		Rows: [][]Cell{{{Label: "x"}}, {{Label: "y"}, {Nums: []float64{1}}, {Nums: []float64{2}}}}}
	future := ragged
	future.Chart = &Chart{Kind: "sparkline"}
	narrow := Table{Columns: []Column{Col("a", "", "")}, Rows: [][]Cell{{{Label: "x"}}},
		Chart: &Chart{Kind: ChartHeatmap}}
	short := Table{Columns: []Column{Col("k", "", ""), Col("w", "", "%.0f"), Col("v", "", "%.1f")},
		Rows: [][]Cell{{{Label: "r"}}}, Chart: &Chart{Kind: ChartHeatmap}}
	grid := render(t, ragged)
	if got := render(t, future); got != grid {
		t.Errorf("unknown chart kind did not fall back to the grid:\n%s", got)
	}
	render(t, narrow, short)
}

func TestCellJSONRoundTrip(t *testing.T) {
	cells := []Cell{{Label: "yes"}, {Nums: []float64{1.5}}, {Nums: []float64{0.25, 0.75}}, {}}
	blob, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `["yes",1.5,[0.25,0.75],null]` {
		t.Errorf("cells encoded as %s", blob)
	}
	var back []Cell
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cells) {
		t.Errorf("cells decoded as %+v, want %+v", back, cells)
	}
	if err := json.Unmarshal([]byte(`[true]`), &back); err == nil {
		t.Error("a boolean cell decoded")
	}
}
