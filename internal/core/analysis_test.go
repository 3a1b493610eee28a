package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"testing"
	"time"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
	"videoapp/internal/quality"
	"videoapp/internal/synth"
)

func TestImportanceAtLeastOne(t *testing.T) {
	holds(t, allClips, func(e *entry) error { return atLeastOne(e.an) })
}

// TestImportanceMonotoneWithinFrames: §4.4, coding dependencies impose
// strictly decreasing importance in scan order — the property that makes
// pivots exact.
func TestImportanceMonotoneWithinFrames(t *testing.T) {
	holds(t, unslicedClips, func(e *entry) error { return e.an.CheckMonotone() })
}

// TestEarlyFramesMoreImportant: frames early in a GOP feed every later frame
// via compensation, so the head of a one-GOP clip's first frame outweighs the
// head of its last.
func TestEarlyFramesMoreImportant(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		if first, last := e.an.Importance[0][0], e.an.Importance[e.frames-1][0]; e.gop >= e.frames && e.bFrames == 0 && first <= last {
			return fmt.Errorf("first frame head importance %.1f <= last frame head %.1f", first, last)
		}
		return nil
	})
}

func TestCompImportanceExcludesCodingChain(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		return compared(e.an, func(total, comp float64) bool { return comp <= total+1e-9 })
	})
}

func TestCodingWeightZeroDropsChain(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		return compared(analyze(t, e.v, Options{CodingWeight: 0}), func(total, comp float64) bool { return math.Abs(total-comp) <= 1e-9 })
	})
}

// TestUnreferencedBFramesLowImportance: §8, disallowing B references creates
// frames whose errors cannot propagate; all their MBs keep compensation
// importance 1.
func TestUnreferencedBFramesLowImportance(t *testing.T) {
	e := corpusOf(t, bClip)
	checked := 0
	for f, ef := range e.v.Frames {
		if ef.Type != codec.FrameB {
			continue
		}
		for m := range ef.MBs {
			if e.an.CompImportance[f][m] != 1 {
				t.Fatalf("unreferenced B frame %d MB %d has compensation importance %f", ef.DisplayIdx, m, e.an.CompImportance[f][m])
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

// TestPartitionPivotsMonotoneSchemes: every frame's pivots start at its first
// macroblock and increase, and in a frame of one slice the schemes weaken
// down the frame.
func TestPartitionPivotsMonotoneSchemes(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		if len(e.parts) != len(e.v.Frames) {
			return fmt.Errorf("%d partitions for %d frames", len(e.parts), len(e.v.Frames))
		}
		for f, fp := range e.parts {
			if len(fp.Pivots) == 0 || fp.Pivots[0].Bit != e.v.Frames[f].MBs[0].BitStart {
				return fmt.Errorf("frame %d: pivots %v", f, fp.Pivots)
			}
			for i := 1; i < len(fp.Pivots); i++ {
				if p, q := fp.Pivots[i-1], fp.Pivots[i]; q.Bit <= p.Bit || e.slices == 1 && q.Scheme.T > p.Scheme.T {
					return fmt.Errorf("frame %d: pivot %+v after %+v", f, q, p)
				}
			}
		}
		return nil
	})
}

func TestSegmentsCoverPayload(t *testing.T) {
	holds(t, unslicedClips, func(e *entry) error { return tiles(e.v, e.parts) })
}

func TestSplitMergeRoundTrip(t *testing.T) {
	holds(t, unslicedClips, func(e *entry) error { return splitMerge(e.v, e.parts, nil) })
}

func TestSplitStreamsConserveBits(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		ss, err := SplitStreams(e.v, e.parts)
		if err != nil {
			return err
		}
		var total int64
		for _, n := range ss.Bits {
			total += n
		}
		if total != e.v.TotalPayloadBits() {
			return fmt.Errorf("streams hold %d bits, video has %d", total, e.v.TotalPayloadBits())
		}
		return nil
	})
}

func TestMergeDetectsMissingStream(t *testing.T) {
	e := corpusOf(t, newsClip)
	ss, err := SplitStreams(e.v, e.parts)
	if err != nil {
		t.Fatal(err)
	}
	for name := range ss.Streams {
		delete(ss.Streams, name)
		if _, err := ss.Merge(e.v); err == nil {
			t.Fatalf("missing stream %s must be detected", name)
		}
		ss, _ = SplitStreams(e.v, e.parts)
	}
}

// TestCorruptionInStreamStaysLocal: flipping a bit of one substream then
// merging must change exactly that payload bit — the §5.3 composability
// invariant.
func TestCorruptionInStreamStaysLocal(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		ss, err := SplitStreams(e.v, e.parts)
		if err != nil {
			return err
		}
		for name, stream := range ss.Streams {
			if ss.Bits[name] <= 3 {
				continue
			}
			ss.Streams[name] = bytes.Clone(stream)
			bitio.FlipBit(ss.Streams[name], 3)
			merged, err := ss.Merge(e.v)
			if err != nil {
				return err
			}
			ss.Streams[name] = stream
			diff := 0
			for f := range e.v.Frames {
				for i, b := range e.v.Frames[f].Payload {
					diff += bits.OnesCount8(b ^ merged.Frames[f].Payload[i])
				}
			}
			if diff != 1 {
				return fmt.Errorf("one flipped bit of stream %s changed %d payload bits", name, diff)
			}
		}
		return nil
	})
}

// TestImportanceCorrelatesWithMeasuredDamage is §7.1's validation in
// miniature: flips in the most important macroblocks must hurt more than
// flips in the least important.
func TestImportanceCorrelatesWithMeasuredDamage(t *testing.T) {
	e := corpusOf(t, damageClip)
	ctx := context.Background()
	clean, err := codec.DecodeContext(ctx, e.v, codec.DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	flipAndMeasure := func(sel func(MBBits) bool) float64 {
		sum, n := 0.0, 0
		for _, r := range e.an.MBBitRanges() {
			if !sel(r) || r.BitLen < 4 {
				continue
			}
			c := e.v.Clone()
			bitio.FlipBit(c.Frames[r.Frame].Payload, r.BitStart+1)
			dec, err := codec.DecodeContext(ctx, c, codec.DecodeOptions{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := quality.PSNRContext(ctx, clean, dec, 1)
			sum += p
			if n++; n >= 25 {
				break
			}
		}
		if n == 0 {
			t.Fatal("no MBs selected")
		}
		return sum / float64(n)
	}
	max := e.an.MaxImportance()
	hiPSNR := flipAndMeasure(func(r MBBits) bool { return r.Importance > max/4 })
	loPSNR := flipAndMeasure(func(r MBBits) bool { return r.Importance <= 2 })
	if hiPSNR >= loPSNR {
		t.Fatalf("high-importance flips PSNR %.2f >= low-importance %.2f; importance does not track damage", hiPSNR, loPSNR)
	}
}

// TestPivotOverheadTiny: §4.4, the bookkeeping is a few bytes per frame and
// slice, orders of magnitude below the payload, in a clip of one long GOP,
// as the paper codes them (the 4-frame GOPs of gopsClip take 9 bytes).
func TestPivotOverheadTiny(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		if perFrame := PivotOverheadBits(e.parts) / int64(len(e.parts)); e.gop >= e.frames && perFrame > 8*8*int64(e.slices) {
			return fmt.Errorf("pivot overhead %d bits/frame exceeds a few bytes per slice", perFrame)
		}
		return nil
	})
}

func TestIdealAndUniformAssignments(t *testing.T) {
	if s := IdealAssignment().SchemeFor(1e9); s.NominalRate != 0 {
		t.Fatal("ideal must be error-free")
	}
	if s := UniformAssignment().SchemeFor(1); s.Name != "BCH-16" {
		t.Fatal("uniform must protect everything precisely")
	}
}

// TestAnalysisOverheadSmall: §4.3.1, analysis is meant to cost 2-3 % of
// encode; allow generous slack for tiny inputs but catch anything
// pathological (> 50 %).
func TestAnalysisOverheadSmall(t *testing.T) {
	cfg, _ := synth.PresetByName(damageClip.preset)
	seq := synth.Generate(cfg.ScaleTo(damageClip.w, damageClip.h, damageClip.frames))
	t0 := time.Now()
	v, err := codec.EncodeParallelContext(context.Background(), seq, damageClip.params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	encode := time.Since(t0)
	t1 := time.Now()
	analyze(t, v, DefaultOptions())
	if analysis := time.Since(t1); analysis*2 > encode {
		t.Fatalf("analysis took %v vs encode %v", analysis, encode)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	b.ReportAllocs()
	v := corpusOf(b, benchClip(20)).v
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze(b, v, DefaultOptions())
	}
}

func BenchmarkSplitStreams(b *testing.B) {
	b.ReportAllocs()
	e := corpusOf(b, benchClip(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SplitStreams(e.v, e.parts); err != nil {
			b.Fatal(err)
		}
	}
}

// sameImportance: an holds bit for bit the importance of ref.
func sameImportance(an, ref *Analysis) error {
	for f := range ref.Importance {
		for m := range ref.Importance[f] {
			if an.Importance[f][m] != ref.Importance[f][m] || an.CompImportance[f][m] != ref.CompImportance[f][m] {
				return fmt.Errorf("frame %d MB %d: importance %v/%v, serial %v/%v", f, m,
					an.Importance[f][m], an.CompImportance[f][m], ref.Importance[f][m], ref.CompImportance[f][m])
			}
		}
	}
	return nil
}

// TestAnalyzeContextBitIdentical verifies the headline guarantee of the
// parallel analysis: every importance value is bit-identical to the serial
// sweep at every worker count, because spans of the dependency DAG never
// interleave their floating-point accumulations.
func TestAnalyzeContextBitIdentical(t *testing.T) {
	holds(t, allClips, func(e *entry) error {
		for _, workers := range []int{2, 8} {
			an, err := AnalyzeContext(context.Background(), e.v, DefaultOptions(), workers)
			if err != nil {
				return err
			}
			if err := sameImportance(an, e.an); err != nil {
				return fmt.Errorf("workers=%d: %v", workers, err)
			}
		}
		return nil
	})
}

func TestDepSpansClosedGOPs(t *testing.T) {
	v := corpusOf(t, gopsClip).v.Clone()
	spans := depSpans(v)
	want := [][2]int{{0, 4}, {4, 8}, {8, 12}}
	if len(spans) != len(want) || spans[0] != want[0] || spans[1] != want[1] || spans[2] != want[2] {
		t.Fatalf("spans %v, want %v", spans, want)
	}
	// A dependency crossing a GOP boundary must fuse the spans. The last
	// macroblock's window ends the frame's dependency array, which the
	// clone shares until the append copies it.
	f5 := v.Frames[5]
	f5.Deps = append(f5.Deps, codec.CompDep{SrcFrame: 3, SrcMB: 0, Pixels: 16})
	f5.MBs[len(f5.MBs)-1].DepN++
	if spans = depSpans(v); spans[0] != [2]int{0, 8} {
		t.Fatalf("cross-GOP dep not honoured: %v", spans)
	}
	// And the fused analysis must still match serial exactly.
	an, err := AnalyzeContext(context.Background(), v, DefaultOptions(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameImportance(an, analyze(t, v, DefaultOptions())); err != nil {
		t.Fatalf("after the fuse: %v", err)
	}
}

func TestAnalyzeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, corpusOf(t, newsClip).v, DefaultOptions(), 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

// TestNonMonotoneSentinel: an analysis whose importance rises in scan order
// fails CheckMonotone with the ErrNonMonotone sentinel.
func TestNonMonotoneSentinel(t *testing.T) {
	an := analyze(t, corpusOf(t, newsClip).v, DefaultOptions())
	an.Importance[0][1] = an.Importance[0][0] + 5
	if err := an.CheckMonotone(); !errors.Is(err, ErrNonMonotone) {
		t.Fatalf("got %v", err)
	}
}

func TestMonotonePerSlice(t *testing.T) {
	holds(t, slicedClips, func(e *entry) error { return e.an.CheckMonotone() })
}

// TestSliceResetsCodingChain: no macroblock inherits the coding-chain
// importance of the next slice, so the last macroblock of every slice but
// the last is a chain leaf, its importance exactly its compensation
// importance.
func TestSliceResetsCodingChain(t *testing.T) {
	holds(t, slicedClips, func(e *entry) error {
		for f, ef := range e.v.Frames {
			if len(ef.SliceMBStart) != e.slices {
				return fmt.Errorf("frame %d has %d slices", f, len(ef.SliceMBStart))
			}
			for _, s := range ef.SliceMBStart[1:] {
				if leaf := s - 1; e.an.Importance[f][leaf] != e.an.CompImportance[f][leaf] {
					return fmt.Errorf("frame %d: slice tail MB %d carries chain weight %f > comp %f", f, leaf, e.an.Importance[f][leaf], e.an.CompImportance[f][leaf])
				}
			}
		}
		return nil
	})
}

// TestSlicedPartitionPivotsPerSlice: a sliced frame's segments tile its
// payload, and its schemes strengthen only where a slice starts.
func TestSlicedPartitionPivotsPerSlice(t *testing.T) {
	holds(t, slicedClips, func(e *entry) error {
		for f, fp := range e.parts {
			starts := map[int64]bool{}
			for _, s := range e.v.Frames[f].SliceMBStart {
				starts[e.v.Frames[f].MBs[s].BitStart] = true
			}
			for i := 1; i < len(fp.Pivots); i++ {
				if p, q := fp.Pivots[i-1], fp.Pivots[i]; q.Scheme.T > p.Scheme.T && !starts[q.Bit] {
					return fmt.Errorf("frame %d: scheme strengthens at bit %d, inside a slice", f, q.Bit)
				}
			}
		}
		return tiles(e.v, e.parts)
	})
}

func TestSlicedSplitMergeRoundTrip(t *testing.T) {
	holds(t, slicedClips, func(e *entry) error { return splitMerge(e.v, e.parts, nil) })
}

// TestSlicesIncreaseApproximableShare: §8's promise, limiting coding
// propagation increases the share of low-importance bits.
func TestSlicesIncreaseApproximableShare(t *testing.T) {
	share := func(c clip) float64 {
		var low, total int64
		for _, m := range corpusOf(t, c).an.MBBitRanges() {
			total += m.BitLen
			if Class(m.Importance) <= 6 {
				low += m.BitLen
			}
		}
		return float64(low) / float64(total)
	}
	if s4, s1 := share(slicedClip(4)), share(slicedClip(1)); s4 <= s1 {
		t.Fatalf("4 slices share %.3f <= 1 slice share %.3f", s4, s1)
	}
}
