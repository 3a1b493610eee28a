package core

import (
	"context"
	"math"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
	"videoapp/internal/quality"
	"videoapp/internal/synth"
)

func encodeTestVideo(t testing.TB, preset string, w, h, frames int, p codec.Params) *codec.Video {
	t.Helper()
	cfg, ok := synth.PresetByName(preset)
	if !ok {
		t.Fatalf("unknown preset %s", preset)
	}
	seq := synth.Generate(cfg.ScaleTo(w, h, frames))
	v, err := codec.EncodeParallelContext(context.Background(), seq, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// analyze runs AnalyzeContext at one worker, the serial sweep.
func analyze(t testing.TB, v *codec.Video, opts Options) *Analysis {
	t.Helper()
	an, err := AnalyzeContext(context.Background(), v, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func smallParams() codec.Params {
	p := codec.DefaultParams()
	p.GOPSize = 12
	p.SearchRange = 8
	return p
}

func TestImportanceAtLeastOne(t *testing.T) {
	v := encodeTestVideo(t, "crew_like", 64, 48, 8, smallParams())
	an := analyze(t, v, DefaultOptions())
	for f, row := range an.Importance {
		for m, imp := range row {
			if imp < 1 {
				t.Fatalf("frame %d MB %d: importance %f < 1", f, m, imp)
			}
		}
	}
}

func TestImportanceMonotoneWithinFrames(t *testing.T) {
	// §4.4: coding dependencies impose strictly decreasing importance in
	// scan order — the property that makes pivots exact.
	for _, preset := range []string{"crew_like", "news_like", "sports_like"} {
		v := encodeTestVideo(t, preset, 64, 48, 10, smallParams())
		an := analyze(t, v, DefaultOptions())
		if err := an.CheckMonotone(); err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
	}
}

func TestEarlyFramesMoreImportant(t *testing.T) {
	// Frames early in a GOP feed every later frame via compensation, so
	// their top MBs must dominate the top MBs of late frames.
	p := smallParams()
	p.GOPSize = 10
	v := encodeTestVideo(t, "crew_like", 64, 48, 10, p)
	an := analyze(t, v, DefaultOptions())
	if an.Importance[0][0] <= an.Importance[9][0] {
		t.Fatalf("first frame head importance %.1f <= last frame head %.1f",
			an.Importance[0][0], an.Importance[9][0])
	}
}

func TestCompImportanceExcludesCodingChain(t *testing.T) {
	v := encodeTestVideo(t, "crew_like", 64, 48, 6, smallParams())
	an := analyze(t, v, DefaultOptions())
	for f, row := range an.Importance {
		for m := range row {
			if an.CompImportance[f][m] > row[m]+1e-9 {
				t.Fatalf("compensation importance exceeds total at frame %d MB %d", f, m)
			}
		}
	}
}

func TestCodingWeightZeroDropsChain(t *testing.T) {
	v := encodeTestVideo(t, "crew_like", 64, 48, 6, smallParams())
	an := analyze(t, v, Options{CodingWeight: 0})
	for f, row := range an.Importance {
		for m := range row {
			if math.Abs(row[m]-an.CompImportance[f][m]) > 1e-9 {
				t.Fatal("with zero coding weight total must equal compensation importance")
			}
		}
	}
}

func TestUnreferencedBFramesLowImportance(t *testing.T) {
	// §8: disallowing B references creates frames whose errors cannot
	// propagate; all their MBs keep compensation importance 1.
	p := smallParams()
	p.BFrames = 2
	p.BReference = false
	v := encodeTestVideo(t, "crew_like", 64, 48, 12, p)
	an := analyze(t, v, DefaultOptions())
	checked := 0
	for f, ef := range v.Frames {
		if ef.Type != codec.FrameB {
			continue
		}
		for m := range ef.MBs {
			if an.CompImportance[f][m] != 1 {
				t.Fatalf("unreferenced B frame %d MB %d has compensation importance %f",
					ef.DisplayIdx, m, an.CompImportance[f][m])
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no B frames in test video")
	}
}

func TestClassFunction(t *testing.T) {
	cases := []struct {
		imp  float64
		want int
	}{{0.5, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := Class(c.imp); got != c.want {
			t.Fatalf("Class(%v) = %d, want %d", c.imp, got, c.want)
		}
	}
}

func TestPaperAssignmentMatchesTable1(t *testing.T) {
	ca := PaperAssignment()
	cases := []struct {
		imp    float64
		scheme string
	}{
		{1, "None"}, {4, "None"}, // class 0-2
		{5, "BCH-6"}, {1024, "BCH-6"}, // class 3-10
		{1025, "BCH-7"}, {8192, "BCH-7"}, // class 11-13
		{1 << 16, "BCH-8"},  // class 14-16
		{1 << 20, "BCH-9"},  // class 17-20
		{1 << 26, "BCH-10"}, // class 21-26
		{1 << 27, "BCH-16"}, // beyond: precise
	}
	for _, c := range cases {
		if got := ca.SchemeFor(c.imp); got.Name != c.scheme {
			t.Fatalf("SchemeFor(%v) = %s, want %s", c.imp, got.Name, c.scheme)
		}
	}
	if ca.Header.Name != "BCH-16" {
		t.Fatal("headers must be precise")
	}
}

func TestPartitionPivotsMonotoneSchemes(t *testing.T) {
	v := encodeTestVideo(t, "parkrun_like", 96, 64, 10, smallParams())
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	if len(parts) != len(v.Frames) {
		t.Fatal("one partition per frame")
	}
	for f, fp := range parts {
		if len(fp.Pivots) == 0 {
			t.Fatalf("frame %d has no pivots", f)
		}
		if fp.Pivots[0].Bit != v.Frames[f].MBs[0].BitStart {
			t.Fatalf("frame %d: first pivot at bit %d", f, fp.Pivots[0].Bit)
		}
		for i := 1; i < len(fp.Pivots); i++ {
			if fp.Pivots[i].Bit <= fp.Pivots[i-1].Bit {
				t.Fatalf("frame %d: pivots not increasing", f)
			}
			// Schemes must weaken monotonically down the frame.
			if fp.Pivots[i].Scheme.T > fp.Pivots[i-1].Scheme.T {
				t.Fatalf("frame %d: scheme strengthens mid-frame", f)
			}
		}
	}
}

func TestSegmentsCoverPayload(t *testing.T) {
	v := encodeTestVideo(t, "crew_like", 64, 48, 8, smallParams())
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	for f, fp := range parts {
		var covered int64
		segs := fp.Segments(v.Frames[f].PayloadBits())
		var pos int64
		for _, s := range segs {
			if s.Start != pos {
				t.Fatalf("frame %d: gap before segment at %d", f, s.Start)
			}
			covered += s.Bits
			pos = s.Start + s.Bits
		}
		if covered != v.Frames[f].PayloadBits() {
			t.Fatalf("frame %d: segments cover %d of %d bits", f, covered, v.Frames[f].PayloadBits())
		}
	}
}

func TestSplitMergeRoundTrip(t *testing.T) {
	v := encodeTestVideo(t, "sports_like", 96, 64, 10, smallParams())
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	ss, err := SplitStreams(v, parts)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := ss.Merge(v)
	if err != nil {
		t.Fatal(err)
	}
	for f := range v.Frames {
		a, b := v.Frames[f].Payload, merged.Frames[f].Payload
		if len(a) != len(b) {
			t.Fatalf("frame %d payload length changed", f)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d byte %d differs after split+merge", f, i)
			}
		}
	}
}

func TestSplitStreamsConserveBits(t *testing.T) {
	v := encodeTestVideo(t, "crew_like", 64, 48, 8, smallParams())
	an := analyze(t, v, DefaultOptions())
	ss, err := SplitStreams(v, an.Partition(PaperAssignment()))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range ss.Bits {
		total += n
	}
	if total != v.TotalPayloadBits() {
		t.Fatalf("streams hold %d bits, video has %d", total, v.TotalPayloadBits())
	}
}

func TestMergeDetectsMissingStream(t *testing.T) {
	v := encodeTestVideo(t, "crew_like", 64, 48, 4, smallParams())
	an := analyze(t, v, DefaultOptions())
	ss, _ := SplitStreams(v, an.Partition(PaperAssignment()))
	for name := range ss.Streams {
		delete(ss.Streams, name)
		break
	}
	if _, err := ss.Merge(v); err == nil {
		t.Fatal("missing stream must be detected")
	}
}

func TestCorruptionInStreamStaysLocal(t *testing.T) {
	// Flipping bits in one substream then merging must corrupt exactly
	// those payload bit positions — the §5.3 composability invariant.
	v := encodeTestVideo(t, "crew_like", 64, 48, 6, smallParams())
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	ss, _ := SplitStreams(v, parts)
	name := ss.SchemeNames()[0]
	flipped := append([]byte(nil), ss.Streams[name]...)
	bitio.FlipBit(flipped, 3)
	ss.Streams[name] = flipped
	merged, err := ss.Merge(v)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for f := range v.Frames {
		a, b := v.Frames[f].Payload, merged.Frames[f].Payload
		for i := range a {
			if a[i] != b[i] {
				x := a[i] ^ b[i]
				for ; x != 0; x &= x - 1 {
					diff++
				}
			}
		}
	}
	if diff != 1 {
		t.Fatalf("one flipped stream bit produced %d payload bit changes", diff)
	}
}

func TestImportanceCorrelatesWithMeasuredDamage(t *testing.T) {
	// §7.1 validation in miniature: flips in the most-important decile must
	// hurt more than flips in the least-important decile.
	v := encodeTestVideo(t, "crew_like", 96, 64, 12, smallParams())
	ctx := context.Background()
	clean, err := codec.DecodeContext(ctx, v, codec.DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	an := analyze(t, v, DefaultOptions())
	ranges := an.MBBitRanges()

	flipAndMeasure := func(sel func(MBBits) bool) float64 {
		sum, n := 0.0, 0
		for _, r := range ranges {
			if !sel(r) || r.BitLen < 4 {
				continue
			}
			c := v.Clone()
			bitio.FlipBit(c.Frames[r.Frame].Payload, r.BitStart+1)
			dec, err := codec.DecodeContext(ctx, c, codec.DecodeOptions{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := quality.PSNRContext(ctx, clean, dec, 1)
			sum += p
			n++
			if n >= 25 {
				break
			}
		}
		if n == 0 {
			t.Fatal("no MBs selected")
		}
		return sum / float64(n)
	}
	// Thresholds from the importance distribution.
	max := an.MaxImportance()
	hiPSNR := flipAndMeasure(func(r MBBits) bool { return r.Importance > max/4 })
	loPSNR := flipAndMeasure(func(r MBBits) bool { return r.Importance <= 2 })
	if hiPSNR >= loPSNR {
		t.Fatalf("high-importance flips PSNR %.2f >= low-importance %.2f; importance does not track damage", hiPSNR, loPSNR)
	}
}

func TestPivotOverheadTiny(t *testing.T) {
	// §4.4: bookkeeping must be a few bytes per frame, i.e. orders of
	// magnitude below the payload.
	v := encodeTestVideo(t, "parkrun_like", 96, 64, 10, smallParams())
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	overhead := PivotOverheadBits(parts)
	perFrame := overhead / int64(len(parts))
	if perFrame > 8*8 {
		t.Fatalf("pivot overhead %d bits/frame exceeds a few bytes", perFrame)
	}
}

func TestIdealAndUniformAssignments(t *testing.T) {
	ideal := IdealAssignment()
	if s := ideal.SchemeFor(1e9); s.NominalRate != 0 {
		t.Fatal("ideal must be error-free")
	}
	uniform := UniformAssignment()
	if s := uniform.SchemeFor(1); s.Name != "BCH-16" {
		t.Fatal("uniform must protect everything precisely")
	}
}

func TestAnalysisOverheadSmall(t *testing.T) {
	// §4.3.1: analysis is meant to cost 2-3% of encode; allow generous
	// slack for tiny inputs but catch anything pathological (>50%).
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(96, 64, 12))
	t0 := nowNano()
	v, err := codec.EncodeParallelContext(context.Background(), seq, smallParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	encodeNs := nowNano() - t0
	t1 := nowNano()
	analyze(t, v, DefaultOptions())
	analyzeNs := nowNano() - t1
	if analyzeNs*2 > encodeNs {
		t.Fatalf("analysis took %dns vs encode %dns", analyzeNs, encodeNs)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	b.ReportAllocs()
	v := encodeTestVideo(b, "crew_like", 176, 144, 20, smallParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze(b, v, DefaultOptions())
	}
}

func BenchmarkSplitStreams(b *testing.B) {
	b.ReportAllocs()
	v := encodeTestVideo(b, "crew_like", 176, 144, 10, smallParams())
	an := analyze(b, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitStreams(v, parts); err != nil {
			b.Fatal(err)
		}
	}
}

func nowNano() int64 { return testingNano() }
