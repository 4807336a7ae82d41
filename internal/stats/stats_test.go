package stats

import (
	"math"
	"strings"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Mean(xs), 5) {
		t.Errorf("Mean = %v, want 5", Mean(xs))
	}
	if !almostEq(Variance(xs), 4) {
		t.Errorf("Variance = %v, want 4", Variance(xs))
	}
	if !almostEq(StdDev(xs), 2) {
		t.Errorf("StdDev = %v, want 2", StdDev(xs))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("singleton variance should be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v, %v)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Error("empty MinMax should be (0,0)")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig X", "k", "quality", "algo")
	tb.AddRow(10, 123.4567, "CBAS-ND")
	tb.AddRow(20, 2.0, "DGreedy")
	var sb strings.Builder
	if err := tb.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== Fig X ==", "k", "quality", "algo", "123.4567", "CBAS-ND", "DGreedy"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x,y", `say "hi"`)
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:        "3",
		3.14159:  "3.1416",
		1e7:      "1.000e+07",
		0.000001: "1.000e-06",
		0:        "0",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if FormatFloat(math.NaN()) != "NaN" {
		t.Error("NaN formatting")
	}
}
