package textplot

import (
	"math"
	"strings"
	"testing"
)

func TestTableAlignsAndPads(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-name", "22")
	tb.AddRow("padded") // short row gets padded
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5 (header, rule, 3 rows)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule line = %q", lines[1])
	}
	// All lines equal width for the first column block.
	if !strings.Contains(out, "a-much-longer-name") {
		t.Error("long cell missing")
	}
}

func TestBoxPlotMarksQuartiles(t *testing.T) {
	out := BoxPlot([]string{"x"}, []float64{0}, []float64{1}, []float64{2}, []float64{3}, []float64{4}, 40)
	if !strings.Contains(out, "M") {
		t.Error("median marker missing")
	}
	if !strings.Contains(out, "=") {
		t.Error("inter-quartile box missing")
	}
	if !strings.Contains(out, "min=0.000") {
		t.Error("min label missing")
	}
}

func TestBoxPlotDegenerate(t *testing.T) {
	// All-equal values must not panic or divide by zero.
	out := BoxPlot([]string{"flat"}, []float64{1}, []float64{1}, []float64{1}, []float64{1}, []float64{1}, 20)
	if out == "" {
		t.Error("empty output for degenerate box")
	}
}

func TestQuantileStripMarksAndOrder(t *testing.T) {
	out := QuantileStrip([]string{"dyn"}, []float64{1}, []float64{2}, []float64{3}, []float64{4}, 40)
	for _, marker := range []string{"M", "o", "*", "#"} {
		if !strings.Contains(out, marker) {
			t.Errorf("marker %q missing in %q", marker, out)
		}
	}
	if strings.Index(out, "M") > strings.Index(out, "#") {
		t.Errorf("p50 marker right of p999 in %q", out)
	}
	if !strings.Contains(out, "p999=4.00") {
		t.Errorf("p999 label missing in %q", out)
	}
}

func TestQuantileStripNoSamples(t *testing.T) {
	nan := math.NaN()
	out := QuantileStrip([]string{"empty", "ok"},
		[]float64{nan, 1}, []float64{nan, 1}, []float64{nan, 1}, []float64{nan, 1}, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "(no samples)") {
		t.Errorf("NaN row = %q", lines[0])
	}
	// Degenerate all-equal quantiles coincide; the p999 marker, drawn
	// last, is what survives.
	if !strings.Contains(lines[1], "#") {
		t.Errorf("degenerate single-value row lost its markers: %q", lines[1])
	}
}

func TestLogBars(t *testing.T) {
	out := LogBars([]string{"a", "b", "zero"}, []float64{10, 1000000, 0}, 30)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if strings.Count(lines[1], "#") <= strings.Count(lines[0], "#") {
		t.Error("larger value does not have longer bar")
	}
	if strings.Contains(lines[2], "#") {
		t.Error("zero value has a bar")
	}
}

func TestSeries(t *testing.T) {
	out := Series("x", "y", []float64{1, 2, 3}, []float64{0, 5, 10}, 20)
	if !strings.Contains(out, "x") || !strings.Contains(out, "y") {
		t.Error("labels missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if strings.Count(lines[3], "*") <= strings.Count(lines[2], "*") {
		t.Error("bars not increasing with values")
	}
}

func TestHeatmap(t *testing.T) {
	out := Heatmap("rate\\win",
		[]string{"r1", "r2"},
		[]string{"2000", "8000", "32000"},
		[][]float64{{2.5, 0.4, -1.2}, {-1.0, -2.0, -4.0}}, 0.5)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 2 rows + legend
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "8000") {
		t.Error("column labels missing")
	}
	// Row 1 falls off the break-even band between 8000 (within tol) and
	// 32000 (below −tol): the last holding cell carries the frontier mark,
	// and the strong-positive cell shades '#'.
	if !strings.Contains(lines[1], "+0.4|") {
		t.Errorf("frontier mark missing in %q", lines[1])
	}
	if !strings.Contains(lines[1], "+2.5#") {
		t.Errorf("strong-positive shade missing in %q", lines[1])
	}
	// Row 2 never holds: no frontier mark, negative shades throughout.
	if strings.Contains(lines[2], "|") || strings.Contains(lines[2], "=") {
		t.Errorf("unexpected hold marks in %q", lines[2])
	}
	if !strings.Contains(lines[2], "-4.0.") {
		t.Errorf("strong-negative shade missing in %q", lines[2])
	}
	if !strings.Contains(lines[3], "legend") {
		t.Error("legend missing")
	}
}
