package store

import (
	"context"
	"math/rand"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/quality"
	"videoapp/internal/synth"
)

func buildVideo(t testing.TB) (*codec.Video, *core.Analysis, []core.FramePartition, int64) {
	t.Helper()
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(96, 64, 10))
	p := codec.DefaultParams()
	p.GOPSize = 10
	p.SearchRange = 8
	v, err := codec.EncodeParallelContext(context.Background(), seq, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := an.Partition(core.PaperAssignment())
	return v, an, parts, seq.PixelCount()
}

func variableSystem(t testing.TB) *System {
	t.Helper()
	s, err := New(Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidatesSubstrate(t *testing.T) {
	_, err := New(Config{Substrate: mlc.Substrate{LevelsPerCell: 3, RawBER: 1e-3, ScrubIntervalMonths: 3}})
	if err == nil {
		t.Fatal("bad substrate must be rejected")
	}
}

func TestFootprintAccounting(t *testing.T) {
	v, _, parts, pixels := buildVideo(t)
	s := variableSystem(t)
	st, err := s.FootprintContext(context.Background(), v, parts, pixels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.PayloadBits != v.TotalPayloadBits() {
		t.Fatalf("payload %d, want %d", st.PayloadBits, v.TotalPayloadBits())
	}
	if st.HeaderBits <= 0 || st.Cells <= 0 || st.CellsPerPixel <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	var schemeSum int64
	for _, n := range st.PerScheme {
		schemeSum += n
	}
	if schemeSum != st.PayloadBits {
		t.Fatal("per-scheme sizes must sum to the payload")
	}
}

func TestVariableBeatsUniformDensity(t *testing.T) {
	// The headline result: variable correction needs fewer cells than
	// uniform BCH-16 on everything, and more than ideal.
	v, _, parts, pixels := buildVideo(t)
	variable := variableSystem(t)
	uniform, _ := New(Config{Substrate: mlc.Default(), Assignment: core.UniformAssignment()})
	ideal, _ := New(Config{Substrate: mlc.Default(), Assignment: core.IdealAssignment()})

	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	uniParts := an.Partition(core.UniformAssignment())
	idealParts := an.Partition(core.IdealAssignment())

	sv, _ := variable.FootprintContext(context.Background(), v, parts, pixels, 1)
	su, _ := uniform.FootprintContext(context.Background(), v, uniParts, pixels, 1)
	si, _ := ideal.FootprintContext(context.Background(), v, idealParts, pixels, 1)

	if !(si.Cells < sv.Cells && sv.Cells < su.Cells) {
		t.Fatalf("cells: ideal %.0f, variable %.0f, uniform %.0f — ordering violated",
			si.Cells, sv.Cells, su.Cells)
	}
	saved := (su.Cells - sv.Cells) / su.Cells
	if saved < 0.02 {
		t.Fatalf("variable correction saves only %.1f%% vs uniform", saved*100)
	}
}

func TestECCOverheadEliminationVsUniform(t *testing.T) {
	// Paper: ~47% of the error correction overhead eliminated. Exact value
	// depends on the video; require a substantial cut.
	v, _, parts, pixels := buildVideo(t)
	variable := variableSystem(t)
	uniform, _ := New(Config{Substrate: mlc.Default(), Assignment: core.UniformAssignment()})
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}

	sv, _ := variable.FootprintContext(context.Background(), v, parts, pixels, 1)
	su, _ := uniform.FootprintContext(context.Background(), v, an.Partition(core.UniformAssignment()), pixels, 1)
	cut := 1 - sv.ParityBits/su.ParityBits
	if cut < 0.2 {
		t.Fatalf("variable correction cuts only %.1f%% of parity bits", cut*100)
	}
}

func TestStorePreservesOriginal(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	before := append([]byte(nil), v.Frames[1].Payload...)
	if _, _, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if v.Frames[1].Payload[i] != before[i] {
			t.Fatal("Store must not mutate the input video")
		}
	}
}

func TestStoreInjectsAtNoneRate(t *testing.T) {
	// With the raw substrate rate of 1e-3 on unprotected segments, a video
	// with tens of kilobits in class None should see some flips.
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	totalFlips := 0
	for run := 0; run < 10; run++ {
		_, flips, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(int64(run)))})
		if err != nil {
			t.Fatal(err)
		}
		totalFlips += flips
	}
	if totalFlips == 0 {
		t.Fatal("no errors injected across 10 runs at RBER 1e-3")
	}
}

func TestIdealStoreInjectsNothing(t *testing.T) {
	v, an, _, _ := buildVideo(t)
	parts := an.Partition(core.IdealAssignment())
	s, _ := New(Config{Substrate: mlc.Default(), Assignment: core.IdealAssignment()})
	for run := 0; run < 5; run++ {
		_, flips, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(int64(run)))})
		if err != nil {
			t.Fatal(err)
		}
		if flips != 0 {
			t.Fatal("ideal correction must be error-free")
		}
	}
}

func TestUniformStoreEffectivelyClean(t *testing.T) {
	// 1e-16 on a ~100kbit video: no flips in any reasonable number of runs.
	v, an, _, _ := buildVideo(t)
	parts := an.Partition(core.UniformAssignment())
	s, _ := New(Config{Substrate: mlc.Default(), Assignment: core.UniformAssignment()})
	_, flips, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if flips != 0 {
		t.Fatalf("uniform BCH-16 store flipped %d bits", flips)
	}
}

func TestStoredVideoStillDecodes(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	stored, _, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodeContext(context.Background(), stored, codec.DecodeOptions{}, 1); err != nil {
		t.Fatalf("stored video failed to decode: %v", err)
	}
}

func TestQualityLossBounded(t *testing.T) {
	// End-to-end §7 sanity: the variable-correction store should cost well
	// under a few dB versus the clean decode on this small suite member.
	v, _, parts, _ := buildVideo(t)
	clean, err := codec.DecodeContext(context.Background(), v, codec.DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := variableSystem(t)
	worst := 0.0
	for run := 0; run < 5; run++ {
		stored, _, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rand.New(rand.NewSource(int64(100 + run)))})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.DecodeContext(context.Background(), stored, codec.DecodeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := quality.PSNRContext(context.Background(), clean, dec, 1)
		if loss := quality.MaxPSNR - p; loss > worst {
			worst = loss
		}
	}
	// The tiny test video concentrates importance, so allow generous slack;
	// the real bound is exercised by the Figure 11 experiment.
	if worst > 40 {
		t.Fatalf("worst-case quality loss %.1f dB is catastrophic", worst)
	}
}

func TestLongerScrubIntervalRaisesRates(t *testing.T) {
	short, _ := New(Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment(), ScrubMonths: 3})
	long, _ := New(Config{Substrate: mlc.Default(), Assignment: core.PaperAssignment(), ScrubMonths: 12})
	if long.RBER() <= short.RBER() {
		t.Fatalf("12-month scrub RBER %g <= 3-month %g", long.RBER(), short.RBER())
	}
}

func TestPartitionCountMismatch(t *testing.T) {
	v, _, parts, _ := buildVideo(t)
	s := variableSystem(t)
	if _, err := s.FootprintContext(context.Background(), v, parts[:1], 100, 1); err == nil {
		t.Fatal("partition mismatch must error")
	}
	if _, _, err := s.StoreContext(context.Background(), v, parts[:1], StoreOpts{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("partition mismatch must error")
	}
}

func BenchmarkStore(b *testing.B) {
	b.ReportAllocs()
	v, _, parts, _ := buildVideo(b)
	s := variableSystem(b)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.StoreContext(context.Background(), v, parts, StoreOpts{Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}
