package experiments

import (
	"context"
	"strings"
	"testing"

	"videoapp/internal/core"
)

// testSuite is EncodeSuite(cfg), failing t on error.
func testSuite(t *testing.T, cfg Config) []*EncodedVideo {
	t.Helper()
	suite, err := EncodeSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

func TestEncodeSuiteFast(t *testing.T) {
	suite := testSuite(t, FastConfig())
	if len(suite) != 2 {
		t.Fatalf("suite size %d", len(suite))
	}
	for _, ev := range suite {
		if ev.Video == nil || ev.Analysis == nil {
			t.Fatalf("%s: incomplete bundle", ev.Name)
		}
		if len(ev.CleanRecs) != len(ev.Video.Frames) {
			t.Fatalf("%s: rec count", ev.Name)
		}
	}
}

func TestFigure3Shape(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"crew_like"}
	cfg.Runs = 2
	res, err := Figure3(context.Background(), cfg, testSuite(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.MBCols != 6 || res.MBRows != 4 {
		t.Fatalf("grid %dx%d", res.MBCols, res.MBRows)
	}
	if res.Samples == 0 {
		t.Fatal("no samples")
	}
	tl, br := res.Corners()
	if tl >= br {
		t.Fatalf("Figure 3 shape violated: top-left %.1f dB >= bottom-right %.1f dB", tl, br)
	}
	if !strings.Contains(res.String(), "Figure 3") {
		t.Fatal("rendering")
	}
}

func TestFigure8MatchesPaperNumbers(t *testing.T) {
	res := Figure8()
	if len(res.Rows) != 7 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Paper's quoted overheads.
	want := map[string]float64{
		"BCH-6": 11.7, "BCH-7": 13.65, "BCH-8": 15.6, "BCH-9": 17.55,
		"BCH-10": 19.5, "BCH-16": 31.3,
	}
	for _, row := range res.Rows {
		if w, ok := want[row.Scheme]; ok {
			if diff := row.OverheadPct - w; diff > 0.1 || diff < -0.1 {
				t.Fatalf("%s overhead %.2f%%, paper says %.2f%%", row.Scheme, row.OverheadPct, w)
			}
		}
		if row.ComputedBlockFailure <= 0 || row.ComputedBlockFailure > 1e-4 {
			t.Fatalf("%s block failure %.2e implausible", row.Scheme, row.ComputedBlockFailure)
		}
	}
	// Capability ladder must be strictly improving.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].ComputedBlockFailure >= res.Rows[i-1].ComputedBlockFailure {
			t.Fatal("stronger codes must fail less")
		}
	}
}

func TestFigure9BinsOrderedByImportance(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"crew_like"}
	cfg.Runs = 2
	res, err := Figure9(context.Background(), cfg, testSuite(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loss) != NumBins {
		t.Fatalf("%d bins", len(res.Loss))
	}
	// Figure 9b: max importance must be non-decreasing across bins.
	for b := 1; b < NumBins; b++ {
		if res.MaxImportanceLog2[b] < res.MaxImportanceLog2[b-1]-1e-9 {
			t.Fatalf("bin %d max importance %.2f below bin %d's %.2f",
				b, res.MaxImportanceLog2[b], b-1, res.MaxImportanceLog2[b-1])
		}
	}
	// Validation criterion (§7.1): the loss curves should mostly respect
	// the bin order; tiny suites tolerate a few inversions from noise.
	if v := res.OrderViolations(0.5); v > NumBins*len(res.Rates)/4 {
		t.Fatalf("%d order violations", v)
	}
	// High-importance bins at high rates must actually lose quality.
	if res.Loss[NumBins-1][len(res.Rates)-1] >= 0 {
		t.Fatal("top bin at 1e-2 must lose quality")
	}
	_ = res.String()
}

func TestFigure9LossGrowsWithRate(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"news_like"}
	cfg.Runs = 2
	res, err := Figure9(context.Background(), cfg, testSuite(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	// For the top bin, loss at 1e-2 must exceed loss at 1e-6.
	top := res.Loss[NumBins-1]
	if top[len(res.Rates)-1] > top[4] {
		t.Fatalf("loss must grow with rate: %v", top)
	}
}

func TestFigure10CumulativeStructure(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"crew_like"}
	cfg.Runs = 2
	res, err := Figure10(context.Background(), cfg, testSuite(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) == 0 {
		t.Fatal("no classes")
	}
	// Storage fraction must be non-decreasing and end at 100%.
	for i := 1; i < len(res.StorageFrac); i++ {
		if res.StorageFrac[i] < res.StorageFrac[i-1]-1e-9 {
			t.Fatal("cumulative storage must not decrease")
		}
	}
	last := res.StorageFrac[len(res.StorageFrac)-1]
	if last < 0.999 || last > 1.001 {
		t.Fatalf("final cumulative storage %.3f, want 1", last)
	}
	_ = res.String()
}

func TestFigure10LossAtInterpolation(t *testing.T) {
	r := &Fig10Result{
		Rates:   []float64{1e-6, 1e-4, 1e-2},
		Classes: []int{5},
		Loss:    [][]float64{{-0.01, -0.1, -1.0}},
	}
	if got := r.LossAt(0, 1e-4); got != -0.1 {
		t.Fatalf("exact point: %v", got)
	}
	if got := r.LossAt(0, 1e-5); got >= -0.01 || got <= -0.1 {
		t.Fatalf("interpolated %v out of bracket", got)
	}
	if got := r.LossAt(0, 1e-8); got < -0.01/50 {
		t.Fatalf("below-range %v must scale down linearly", got)
	}
	if got := r.LossAt(0, 1); got != -1.0 {
		t.Fatalf("above range clamps: %v", got)
	}
}

func TestDeriveTable1Properties(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"crew_like"}
	cfg.Runs = 2
	f10, err := Figure10(context.Background(), cfg, testSuite(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	tab := DeriveTable1(f10)
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Scheme strength must be non-decreasing across classes.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Scheme.T < tab.Rows[i-1].Scheme.T {
			t.Fatal("scheme strength decreased with class")
		}
	}
	// Total estimated loss within the budget (small slack for the last
	// forced strongest scheme).
	if tab.TotalLossDB > QualityBudgetDB*1.5 {
		t.Fatalf("estimated loss %.3f blows the %.1f budget", tab.TotalLossDB, QualityBudgetDB)
	}
	if tab.Assignment.Header.Name != "BCH-16" {
		t.Fatal("headers must stay precise")
	}
	// The assignment must be usable by the partitioner.
	if got := tab.Assignment.SchemeFor(1.0); got.T > 16 {
		t.Fatal("weakest class got an impossible scheme")
	}
	_ = tab.String()
}

func TestFigure11DesignOrdering(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"crew_like"}
	cfg.Runs = 2
	res, err := Figure11(context.Background(), cfg, testSuite(t, cfg), []int{24}, core.PaperAssignment())
	if err != nil {
		t.Fatal(err)
	}
	points := map[string]*Fig11Point{} // one CRF: a point per design
	for i := range res.Points {
		points[res.Points[i].Design] = &res.Points[i]
	}
	uni, vr, id := points["Uniform"], points["Variable"], points["Ideal"]
	if uni == nil || vr == nil || id == nil {
		t.Fatal("missing points")
	}
	if !(id.CellsPerPixel < vr.CellsPerPixel && vr.CellsPerPixel < uni.CellsPerPixel) {
		t.Fatalf("density ordering violated: ideal %.4f variable %.4f uniform %.4f",
			id.CellsPerPixel, vr.CellsPerPixel, uni.CellsPerPixel)
	}
	if res.OverheadReductionPct <= 0 {
		t.Fatalf("variable must cut ECC overhead, got %.1f%%", res.OverheadReductionPct)
	}
	if res.StorageSavingPct <= 0 {
		t.Fatalf("variable must save storage, got %.1f%%", res.StorageSavingPct)
	}
	// Density gain over SLC must be in a plausible band (paper: 2.57x for
	// variable, ~2.29x for uniform, 3x ideal).
	if id.DensityVsSLC < 2.99 || id.DensityVsSLC > 3.01 {
		t.Fatalf("ideal density vs SLC %.2f, want 3.0", id.DensityVsSLC)
	}
	if vr.DensityVsSLC <= uni.DensityVsSLC {
		t.Fatal("variable must beat uniform density")
	}
	_ = res.String()
}

func TestEncryptionModesTable(t *testing.T) {
	res, err := EncryptionModes(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assessments) != 4 {
		t.Fatalf("%d modes", len(res.Assessments))
	}
	usable := 0
	for _, a := range res.Assessments {
		if a.MeetsAll() {
			usable++
		}
	}
	if usable != 2 {
		t.Fatalf("%d usable modes, want 2 (OFB, CTR)", usable)
	}
	if !strings.Contains(res.String(), "CTR") {
		t.Fatal("rendering")
	}
}

func TestAblateEncoderOptions(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"crew_like"}
	res, err := AblateEncoderOptions(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("%d variants", len(res.Rows))
	}
	byName := map[string]AblateRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.PayloadBits <= 0 {
			t.Fatalf("%s: no payload", r.Name)
		}
	}
	// §8: unreferenced B frames must raise the approximable share vs the
	// same configuration with referenced B frames.
	if byName["B=2 unreferenced"].LowImportanceFrac <= byName["B=2 referenced"].LowImportanceFrac {
		t.Fatalf("unreferenced B frames must polarize importance: %.3f vs %.3f",
			byName["B=2 unreferenced"].LowImportanceFrac, byName["B=2 referenced"].LowImportanceFrac)
	}
	_ = res.String()
}

func TestRenderTableAlignment(t *testing.T) {
	out := renderTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatal("two lines")
	}
	if !strings.HasPrefix(lines[0], "a  ") {
		t.Fatalf("alignment: %q", lines[0])
	}
}

func TestScrubSweep(t *testing.T) {
	cfg := FastConfig()
	cfg.Presets = []string{"crew_like"}
	cfg.Runs = 2
	res, err := ScrubSweep(context.Background(), cfg, testSuite(t, cfg), []float64{3, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Rows[1].RBER <= res.Rows[0].RBER {
		t.Fatal("longer scrub interval must raise the raw error rate")
	}
	if res.Rows[0].WorstLoss > res.Rows[1].WorstLoss+1e-9 && res.Rows[1].Flips > 0 {
		t.Fatalf("loss should not improve with deferred scrubbing: %+v", res.Rows)
	}
	_ = res.String()
}
