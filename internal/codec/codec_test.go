package codec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/frame"
	"videoapp/internal/predict"
	"videoapp/internal/quality"
	"videoapp/internal/synth"
)

// testSeq builds a small deterministic test sequence.
func testSeq(t testing.TB, preset string, w, h, frames int) *frame.Sequence {
	t.Helper()
	cfg, ok := synth.PresetByName(preset)
	if !ok {
		t.Fatalf("unknown preset %s", preset)
	}
	return synth.Generate(cfg.ScaleTo(w, h, frames))
}

func testParams() Params {
	p := DefaultParams()
	p.GOPSize = 12
	p.SearchRange = 8
	return p
}

func encodeDecode(t testing.TB, seq *frame.Sequence, p Params) (*Video, *frame.Sequence) {
	t.Helper()
	v, err := encode(seq, p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return v, dec
}

func TestEncodeDecodeCleanQuality(t *testing.T) {
	seq := testSeq(t, "news_like", 96, 64, 12)
	for _, crf := range []int{16, 24, 32} {
		p := testParams()
		p.CRF = crf
		_, dec := encodeDecode(t, seq, p)
		psnr, err := quality.PSNRContext(context.Background(), seq, dec, 1)
		if err != nil {
			t.Fatal(err)
		}
		minPSNR := 30.0
		if crf >= 32 {
			minPSNR = 24.0
		}
		if psnr < minPSNR {
			t.Fatalf("CRF %d: decoded PSNR %.2f dB below %.1f", crf, psnr, minPSNR)
		}
	}
}

// diagonalPan is a camera pan over blurred noise that moves (dx, dy) pixels
// a frame for the first half of the clip and back for the second, chroma
// included: content leaves and enters at all four borders, so the vectors of
// the macroblocks along them reach past the reference's edges.
func diagonalPan(w, h, frames, dx, dy int) *frame.Sequence {
	rng := rand.New(rand.NewSource(9))
	tw, th := w+frames*dx+2, h+frames*dy+2
	noise := make([]int, tw*th)
	for i := range noise {
		noise[i] = rng.Intn(256)
	}
	tex := func(x, y int) uint8 { // 2×2 box blur: half-pel positions differ from full-pel ones
		return uint8((noise[y*tw+x] + noise[y*tw+x+1] + noise[(y+1)*tw+x] + noise[(y+1)*tw+x+1]) / 4)
	}
	seq := &frame.Sequence{Name: "diagonal_pan", FPS: 30}
	for i := 0; i < frames; i++ {
		step := min(i, frames-1-i)
		ox, oy := step*dx, step*dy
		f := frame.MustNew(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Y[y*w+x] = tex(ox+x, oy+y)
			}
		}
		for y := 0; y < h/2; y++ {
			for x := 0; x < w/2; x++ {
				f.Cb[y*w/2+x] = tex(ox/2+x+w/2, oy/2+y)
				f.Cr[y*w/2+x] = tex(ox/2+x, oy/2+y+h/2)
			}
		}
		seq.Frames = append(seq.Frames, f)
	}
	return seq
}

// borderClamps reports which borders of the frame — left, right, top,
// bottom — the inter partitions of v read past, from the parse records the
// decode of a video sharing syntax with itself left behind.
func borderClamps(t *testing.T, v *Video) (reached [4]bool) {
	t.Helper()
	check := func(px, py int, r predict.Rect, mv predict.MV) {
		x0, y0 := px+r.X+int(mv.X), py+r.Y+int(mv.Y)
		if v.Params.HalfPel { // the integer sample left of / above the vector
			x0, y0 = px+r.X+int(mv.X)>>1, py+r.Y+int(mv.Y)>>1
		}
		reached[0] = reached[0] || x0 < 0
		reached[1] = reached[1] || x0+r.W > v.W
		reached[2] = reached[2] || y0 < 0
		reached[3] = reached[3] || y0+r.H > v.H
	}
	n := v.MBCols() * v.MBRows()
	for i, ef := range v.Frames {
		m := ef.SyntaxSlot().rec.Load()
		if m == nil {
			t.Fatalf("coded frame %d left no parse record", i)
		}
		rd := syntaxReader{data: m.data}
		starts := append(append([]int(nil), ef.SliceMBStart...), n)
		var s mbSyntax
		for sl := 0; sl+1 < len(starts); sl++ {
			for mb := starts[sl]; mb < starts[sl+1]; mb++ {
				rd.readMB(&s)
				if s.mbType == mbIntra {
					continue
				}
				px, py := mb%v.MBCols()*frame.MBSize, mb/v.MBCols()*frame.MBSize
				for p, r := range s.motion.rects {
					if s.motion.dirs[p] != dirBwd {
						check(px, py, r, s.motion.mvF[p])
					}
					if s.motion.dirs[p] != dirFwd {
						check(px, py, r, s.motion.mvB[p])
					}
				}
			}
			rd.u8() // the slice's desync byte
		}
	}
	return reached
}

// TestDecodedMatchesEncoderReconstruction: the decoder must reproduce the
// encoder's reconstruction sample for sample, or references drift and damage
// experiments are meaningless. Both predict into the frame and add the
// residual in place through reconstruct.go; they must agree for every entropy
// coder × vector precision × B frames × slices × deblocking, with adaptive
// quantization on (per-macroblock quantizers), on a pan whose vectors reach
// past all four borders, when the decoder parses, when it replays the parse
// on record.
func TestDecodedMatchesEncoderReconstruction(t *testing.T) {
	seq := diagonalPan(80, 64, 9, 5, 3)
	var reached [4]bool
	for _, coder := range []EntropyKind{CABAC, CAVLC} {
		for _, halfPel := range []bool{false, true} {
			for _, bFrames := range []int{0, 2} {
				for _, slices := range []int{1, 4} {
					for _, deblock := range []bool{false, true} {
						p := testParams()
						p.Entropy, p.HalfPel, p.SlicesPerFrame, p.Deblock, p.ActivityAQ = coder, halfPel, slices, deblock, true
						p.BFrames, p.BReference = bFrames, bFrames > 0
						what := fmt.Sprintf("%s halfpel=%v bframes=%d slices=%d deblock=%v", coder, halfPel, bFrames, slices, deblock)
						v, want, err := encodeRecs(seq, p)
						if err != nil {
							t.Fatal(err)
						}
						shared := v.Clone()
						shareWithSelf(shared)
						for _, run := range []string{"parse", "replay"} {
							got, err := decodeCoded(shared, nil, 1)
							if err != nil {
								t.Fatal(err)
							}
							comparePlanes(t, what+" "+run, got, want)
						}
						for i, b := range borderClamps(t, shared) {
							reached[i] = reached[i] || b
						}
					}
				}
			}
		}
	}
	if reached != [4]bool{true, true, true, true} {
		t.Fatalf("vectors reached past the left, right, top, bottom border: %v; the clip must reach all four", reached)
	}
}

func TestQualityImprovesWithLowerCRF(t *testing.T) {
	seq := testSeq(t, "parkrun_like", 96, 64, 10)
	var prevPSNR float64
	var prevBits int64
	for i, crf := range []int{36, 28, 20} {
		p := testParams()
		p.CRF = crf
		v, dec := encodeDecode(t, seq, p)
		psnr, _ := quality.PSNRContext(context.Background(), seq, dec, 1)
		bits := v.TotalPayloadBits()
		if i > 0 {
			if psnr <= prevPSNR {
				t.Fatalf("CRF %d: PSNR %.2f not better than %.2f at higher CRF", crf, psnr, prevPSNR)
			}
			if bits <= prevBits {
				t.Fatalf("CRF %d: bits %d not larger than %d at higher CRF", crf, bits, prevBits)
			}
		}
		prevPSNR, prevBits = psnr, bits
	}
}

func TestGOPStructure(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 25)
	p := testParams()
	p.GOPSize = 10
	v, _ := encodeDecode(t, seq, p)
	for _, f := range v.Frames {
		wantI := f.DisplayIdx%10 == 0
		if wantI != (f.Type == FrameI) {
			t.Fatalf("frame %d: type %v, GOP size 10", f.DisplayIdx, f.Type)
		}
		if f.Type == FrameI && (f.RefFwd != -1 || f.RefBwd != -1) {
			t.Fatalf("I frame %d has references", f.DisplayIdx)
		}
		if f.Type == FrameP && f.RefFwd == -1 {
			t.Fatalf("P frame %d missing forward reference", f.DisplayIdx)
		}
	}
}

func TestBFrameStructure(t *testing.T) {
	seq := testSeq(t, "crew_like", 64, 48, 13)
	p := testParams()
	p.GOPSize = 12
	p.BFrames = 2
	v, dec := encodeDecode(t, seq, p)
	types := map[FrameType]int{}
	for _, f := range v.Frames {
		types[f.Type]++
		if f.Type == FrameB {
			if f.RefFwd == -1 || f.RefBwd == -1 {
				t.Fatalf("B frame %d missing references (%d, %d)", f.DisplayIdx, f.RefFwd, f.RefBwd)
			}
			// Coded-order causality: references must be coded earlier.
			if f.RefFwd >= f.CodedIdx || f.RefBwd >= f.CodedIdx {
				t.Fatalf("B frame %d references future coded frames", f.DisplayIdx)
			}
		}
	}
	if types[FrameB] == 0 {
		t.Fatal("no B frames produced")
	}
	if len(dec.Frames) != 13 {
		t.Fatalf("decoded %d frames, want 13", len(dec.Frames))
	}
	psnr, _ := quality.PSNRContext(context.Background(), seq, dec, 1)
	if psnr < 26 {
		t.Fatalf("B-frame encode quality %.2f dB too low", psnr)
	}
}

func TestDisplayOrderRestored(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 9)
	p := testParams()
	p.BFrames = 2
	p.GOPSize = 9
	v, _ := encodeDecode(t, seq, p)
	seen := map[int]bool{}
	for _, f := range v.Frames {
		if seen[f.DisplayIdx] {
			t.Fatalf("display index %d coded twice", f.DisplayIdx)
		}
		seen[f.DisplayIdx] = true
	}
	for d := 0; d < 9; d++ {
		if !seen[d] {
			t.Fatalf("display index %d never coded", d)
		}
	}
}

func TestCAVLCBackend(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 8)
	p := testParams()
	p.Entropy = CAVLC
	_, dec := encodeDecode(t, seq, p)
	psnr, _ := quality.PSNRContext(context.Background(), seq, dec, 1)
	if psnr < 28 {
		t.Fatalf("CAVLC decode PSNR %.2f dB", psnr)
	}
}

func TestCABACSmallerThanCAVLC(t *testing.T) {
	// The paper's premise for choosing CABAC: better compression (§2.3.4).
	seq := testSeq(t, "stockholm_like", 96, 64, 10)
	pa, pv := testParams(), testParams()
	pv.Entropy = CAVLC
	va, err := encode(seq, pa)
	if err != nil {
		t.Fatal(err)
	}
	vv, err := encode(seq, pv)
	if err != nil {
		t.Fatal(err)
	}
	if va.TotalPayloadBits() >= vv.TotalPayloadBits() {
		t.Fatalf("CABAC %d bits >= CAVLC %d bits", va.TotalPayloadBits(), vv.TotalPayloadBits())
	}
}

func TestMBRecordsCoverPayload(t *testing.T) {
	seq := testSeq(t, "parkrun_like", 64, 48, 6)
	v, _ := encodeDecode(t, seq, testParams())
	for fi, f := range v.Frames {
		if len(f.MBs) != v.MBCols()*v.MBRows() {
			t.Fatalf("frame %d: %d MB records", fi, len(f.MBs))
		}
		var pos int64
		for i, mb := range f.MBs {
			if mb.BitStart != pos {
				t.Fatalf("frame %d MB %d: bit start %d, want %d", fi, i, mb.BitStart, pos)
			}
			if mb.BitLen < 0 {
				t.Fatalf("frame %d MB %d: negative length", fi, i)
			}
			pos += mb.BitLen
		}
		if pos != f.PayloadBits() {
			t.Fatalf("frame %d: records cover %d bits, payload %d", fi, pos, f.PayloadBits())
		}
	}
}

func TestMBDependenciesRecorded(t *testing.T) {
	seq := testSeq(t, "crew_like", 64, 48, 8)
	v, _ := encodeDecode(t, seq, testParams())
	interDeps, intraDeps := 0, 0
	for _, f := range v.Frames {
		for _, mb := range f.MBs {
			for _, d := range mb.Deps {
				if d.Pixels <= 0 || d.Pixels > 256 {
					t.Fatalf("dep pixels %d out of range", d.Pixels)
				}
				if d.SrcFrame == f.CodedIdx {
					intraDeps++
					// Same-frame references must respect scan order.
					if d.SrcMB.Index(v.MBCols()) >= mb.MB.Index(v.MBCols()) {
						t.Fatal("intra dep must reference an earlier MB")
					}
				} else {
					interDeps++
					if d.SrcFrame > f.CodedIdx {
						t.Fatal("compensation dep must reference an earlier coded frame")
					}
				}
			}
		}
	}
	if interDeps == 0 {
		t.Fatal("no inter-frame dependencies recorded")
	}
	if intraDeps == 0 {
		t.Fatal("no intra-frame dependencies recorded")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	f := &EncodedFrame{
		Type: FrameB, CodedIdx: 17, DisplayIdx: 15, BaseQP: 26,
		RefFwd: 12, RefBwd: -1, Payload: make([]byte, 12345),
	}
	var g EncodedFrame
	n, err := unmarshalHeader(marshalHeader(f), &g)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12345 || g.Type != FrameB || g.CodedIdx != 17 || g.DisplayIdx != 15 ||
		g.BaseQP != 26 || g.RefFwd != 12 || g.RefBwd != -1 {
		t.Fatalf("header round trip: %+v payload %d", &g, n)
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	var g EncodedFrame
	if _, err := unmarshalHeader(nil, &g); err == nil {
		t.Fatal("empty header must error")
	}
}

func TestParamValidation(t *testing.T) {
	bad := []Params{
		{CRF: -1, GOPSize: 10, SearchRange: 8},
		{CRF: 99, GOPSize: 10, SearchRange: 8},
		{CRF: 24, GOPSize: 0, SearchRange: 8},
		{CRF: 24, GOPSize: 10, SearchRange: 0},
		{CRF: 24, GOPSize: 10, SearchRange: 8, BFrames: -1},
		{CRF: 24, GOPSize: 10, SearchRange: 8, BFrames: 3}, // 10 % 4 != 0
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %d must be rejected: %+v", i, p)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, err := encode(&frame.Sequence{}, DefaultParams()); err == nil {
		t.Fatal("empty sequence must be rejected")
	}
}

func TestVideoClone(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 4)
	v, _ := encodeDecode(t, seq, testParams())
	c := v.Clone()
	c.Frames[0].Payload[0] ^= 0xFF
	if v.Frames[0].Payload[0] == c.Frames[0].Payload[0] {
		t.Fatal("clone must not alias payload")
	}
}

func TestSkipModeUsedInStaticContent(t *testing.T) {
	cfg, _ := synth.PresetByName("news_like")
	cfg = cfg.ScaleTo(64, 48, 8)
	cfg.Sprites, cfg.Noise, cfg.Shake, cfg.PanX, cfg.PanY = 0, 0, 0, 0, 0
	seq := synth.Generate(cfg)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	// Static P frames should be mostly skip: tiny payloads.
	var pBits, iBits int64
	for _, f := range v.Frames {
		if f.Type == FrameP {
			pBits += f.PayloadBits()
		} else {
			iBits += f.PayloadBits()
		}
	}
	if pBits >= iBits {
		t.Fatalf("static P frames (%d bits) should be far smaller than I (%d bits)", pBits, iBits)
	}
}

// --- Error resilience: the core requirement for the paper's experiments ---

func TestDecodeCorruptPayloadNeverPanics(t *testing.T) {
	seq := testSeq(t, "sports_like", 64, 48, 6)
	for _, kind := range []EntropyKind{CABAC, CAVLC} {
		p := testParams()
		p.Entropy = kind
		v, err := encode(seq, p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			c := v.Clone()
			for fi, f := range c.Frames {
				for b := 0; b < 3; b++ {
					bitio.FlipBit(f.Payload, int64((trial*7+fi*13+b*29)*31)%f.PayloadBits())
				}
			}
			if _, err := DecodeContext(context.Background(), c, DecodeOptions{}, 1); err != nil {
				t.Fatalf("%v: corrupt decode returned error: %v", kind, err)
			}
		}
	}
}

func TestDecodeAllOnesPayload(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 4)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	c := v.Clone()
	for _, f := range c.Frames {
		for i := range f.Payload {
			f.Payload[i] = 0xFF
		}
	}
	if _, err := DecodeContext(context.Background(), c, DecodeOptions{}, 1); err != nil {
		t.Fatalf("all-ones payload: %v", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 4)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	c := v.Clone()
	for _, f := range c.Frames {
		if len(f.Payload) > 2 {
			f.Payload = f.Payload[:2]
		}
	}
	if _, err := DecodeContext(context.Background(), c, DecodeOptions{}, 1); err != nil {
		t.Fatalf("truncated payload: %v", err)
	}
}

func TestBitFlipDamagesQuality(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 10)
	v, dec := encodeDecode(t, seq, testParams())
	cleanPSNR, _ := quality.PSNRContext(context.Background(), seq, dec, 1)

	c := v.Clone()
	// Flip one bit early in the first P frame.
	target := c.Frames[1]
	bitio.FlipBit(target.Payload, 10)
	corrupted, err := DecodeContext(context.Background(), c, DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	corruptPSNR, _ := quality.PSNRContext(context.Background(), seq, corrupted, 1)
	if corruptPSNR >= cleanPSNR-0.1 {
		t.Fatalf("single bit flip: PSNR %.2f vs clean %.2f — no visible damage", corruptPSNR, cleanPSNR)
	}
}

func TestErrorPropagationStopsAtIFrame(t *testing.T) {
	seq := testSeq(t, "crew_like", 64, 48, 16)
	p := testParams()
	p.GOPSize = 8
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := DecodeContext(context.Background(), v, DecodeOptions{}, 1)

	c := v.Clone()
	bitio.FlipBit(c.Frames[1].Payload, 5) // damage in first GOP
	corrupt, _ := DecodeContext(context.Background(), c, DecodeOptions{}, 1)

	// Frames of the second GOP (display 8..15) must be unaffected.
	for d := 8; d < 16; d++ {
		for i := range clean.Frames[d].Y {
			if clean.Frames[d].Y[i] != corrupt.Frames[d].Y[i] {
				t.Fatalf("error leaked past I-frame into display frame %d", d)
			}
		}
	}
	// And at least one frame in the first GOP must differ.
	damaged := false
	for d := 1; d < 8 && !damaged; d++ {
		for i := range clean.Frames[d].Y {
			if clean.Frames[d].Y[i] != corrupt.Frames[d].Y[i] {
				damaged = true
				break
			}
		}
	}
	if !damaged {
		t.Fatal("bit flip produced no damage at all")
	}
}

func TestLaterMBFlipDamagesLess(t *testing.T) {
	// Coding error propagation (Figure 2c / Figure 3): a flip near the end
	// of a frame's scan order damages fewer MBs than a flip near the start.
	seq := testSeq(t, "parkrun_like", 96, 64, 8)
	v, err := encode(seq, testParams())
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := DecodeContext(context.Background(), v, DecodeOptions{}, 1)

	measure := func(bitPos int64) float64 {
		c := v.Clone()
		bitio.FlipBit(c.Frames[2].Payload, bitPos)
		corrupt, _ := DecodeContext(context.Background(), c, DecodeOptions{}, 1)
		psnr, _ := quality.PSNRContext(context.Background(), clean, corrupt, 1)
		return psnr
	}
	f := v.Frames[2]
	early := f.MBs[0].BitStart + 2
	lastMB := f.MBs[len(f.MBs)-1]
	late := lastMB.BitStart + 2
	var earlySum, lateSum float64
	earlySum = measure(early)
	lateSum = measure(late)
	if earlySum >= lateSum {
		t.Fatalf("early flip PSNR %.2f >= late flip PSNR %.2f; propagation pattern violated", earlySum, lateSum)
	}
}

func BenchmarkEncodeQCIF(b *testing.B) {
	b.ReportAllocs()
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(176, 144, 10))
	p := testParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode(seq, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeQCIF(b *testing.B) {
	b.ReportAllocs()
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(176, 144, 10))
	v, err := encode(seq, testParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}
