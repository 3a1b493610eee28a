package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestFig8CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure8().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 { // header + 7 schemes
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "BCH-6,") {
		t.Fatalf("first row %q", lines[1])
	}
}

func TestFig3CSV(t *testing.T) {
	r := &Fig3Result{MBCols: 2, MBRows: 2, PSNR: [][]float64{{1, 2}, {3, 4}}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Fatalf("%d lines", got)
	}
}

func TestFig9And10CSV(t *testing.T) {
	f9 := &Fig9Result{
		Rates:             []float64{1e-3},
		Loss:              [][]float64{{-0.5}},
		MaxImportanceLog2: []float64{3},
	}
	var buf bytes.Buffer
	if err := f9.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-0.5") {
		t.Fatal("loss missing")
	}
	f10 := &Fig10Result{Rates: []float64{1e-3}, Classes: []int{5}, Loss: [][]float64{{-0.25}}, StorageFrac: []float64{0.4}}
	buf.Reset()
	if err := f10.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.4") {
		t.Fatal("storage missing")
	}
}

func TestConservativeStrategy(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"crew_like"}
	cfg.Runs = 2
	f10, err := Figure10(context.Background(), cfg, testSuite(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	cons := DeriveConservative(f10)
	budget := DeriveTable1(f10)
	if len(cons.Rows) != len(budget.Rows) {
		t.Fatal("strategies must cover the same classes")
	}
	// Conservative never picks a weaker scheme than what its win condition
	// allows; its per-class scheme strength must be monotone too.
	for i := 1; i < len(cons.Rows); i++ {
		if cons.Rows[i].Scheme.T < cons.Rows[i-1].Scheme.T {
			t.Fatal("conservative schemes must be monotone")
		}
	}
	if cons.Assignment.Header.Name != "BCH-16" {
		t.Fatal("headers precise")
	}
	if s := CompareStrategies(f10); !strings.Contains(s, "conservative") {
		t.Fatal("comparison rendering")
	}
	var buf bytes.Buffer
	if err := cons.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFig11CSV(t *testing.T) {
	r := &Fig11Result{Points: []Fig11Point{{Design: "Variable", CRF: 24, CellsPerPixel: 0.1}}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Variable,24") {
		t.Fatal("row missing")
	}
}
