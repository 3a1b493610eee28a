package codec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/predict"
)

// Differential tests: the production decoder against the sample-at-a-time
// reference in reference_test.go. The golden manifest pins what a fixed set
// of streams decodes to; these pin that the two decoders agree on anything —
// in particular on the garbage only a damaged stream produces (fine
// partitions, ±MaxMV vectors off every border, backward and bi-directional
// partitions against missing references, saturating residuals).

// decodeCoded runs the one decoder, DecodeContext, at the given worker
// count with o attached (nil attaches none) and returns its pictures in
// coded order — the order of the reference decoder, of DecodeSingle's
// references and of the replay tests.
func decodeCoded(v *Video, o obs.Observer, workers int) ([]*frame.Frame, error) {
	seq, err := DecodeContext(obs.With(context.Background(), o), v, DecodeOptions{}, workers)
	if err != nil {
		return nil, err
	}
	recs := make([]*frame.Frame, len(v.Frames))
	for i, ef := range v.Frames {
		recs[i] = seq.Frames[ef.DisplayIdx]
	}
	return recs, nil
}

// refDecode is the reference decoder's display-order sequence.
func refDecode(t *testing.T, v *Video) *frame.Sequence {
	t.Helper()
	recs, err := refDecodeRecs(v)
	if err != nil {
		t.Fatal(err)
	}
	seq := &frame.Sequence{Frames: make([]*frame.Frame, len(v.Frames))}
	for i, ef := range v.Frames {
		seq.Frames[ef.DisplayIdx] = recs[i]
	}
	return seq
}

func comparePlanes(t *testing.T, what string, got, want []*frame.Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, reference %d", what, len(got), len(want))
	}
	for i := range got {
		for _, p := range []struct {
			name string
			g, w []uint8
		}{{"Y", got[i].Y, want[i].Y}, {"Cb", got[i].Cb, want[i].Cb}, {"Cr", got[i].Cr, want[i].Cr}} {
			if !bytes.Equal(p.g, p.w) {
				stride := got[i].W
				if p.name != "Y" {
					stride /= 2
				}
				for j := range p.g {
					if p.g[j] != p.w[j] {
						t.Fatalf("%s: coded frame %d plane %s differs first at (%d,%d): %d, reference %d",
							what, i, p.name, j%stride, j/stride, p.g[j], p.w[j])
					}
				}
			}
		}
	}
}

// checkAgainstReference decodes v through both decoders (and both Reanalyze
// forms when records is set) and requires identical results.
func checkAgainstReference(t *testing.T, what string, v *Video, records bool) {
	t.Helper()
	want, errW := refDecodeRecs(v)
	for _, workers := range []int{1, 4} {
		got, errG := decodeCoded(v, nil, workers)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("%s workers=%d: error %v, reference %v", what, workers, errG, errW)
		}
		if errW != nil {
			return
		}
		comparePlanes(t, fmt.Sprintf("%s workers=%d", what, workers), got, want)
	}
	if !records {
		return
	}
	a, b := v.Clone(), v.Clone()
	if err := refReanalyze(a); err != nil {
		t.Fatal(err)
	}
	if err := Reanalyze(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Frames {
		if !reflect.DeepEqual(a.Frames[i].MBs, b.Frames[i].MBs) {
			t.Fatalf("%s: Reanalyze records of frame %d differ from the reference", what, i)
		}
	}
}

func TestDecodeMatchesReference(t *testing.T) {
	for _, gc := range goldenCases(t) {
		checkAgainstReference(t, gc.key+" clean", gc.clean, true)
		checkAgainstReference(t, gc.key+" flips_lo", gc.flipsLo, true)
		checkAgainstReference(t, gc.key+" flips_hi", gc.flipsHi, true)
		checkAgainstReference(t, gc.key+" truncated", gc.truncated, false)
	}
}

// TestDecodeGarbageMatchesReference replaces every inter frame's payload
// with random bytes: the decoder then interprets uniformly random macroblock
// types, directions, vectors and levels, which reaches every partition shape
// and every border case no encoder output does.
func TestDecodeGarbageMatchesReference(t *testing.T) {
	for _, gc := range goldenCases(t) {
		if !strings.HasPrefix(gc.key, "crew_like/") {
			continue
		}
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := gc.clean.Clone()
			for _, f := range c.Frames[1:] {
				rng.Read(f.Payload)
			}
			checkAgainstReference(t, fmt.Sprintf("%s garbage seed %d", gc.key, seed), c, seed == 0)
		}
	}
}

// fuzzDecodeCeiling bounds one decode of a fuzz input. A 96×64 six-frame
// video decodes in about a millisecond; the ceiling only has to separate that
// from a decode whose time grows with a corrupt field instead of with the
// picture size.
const fuzzDecodeCeiling = 5 * time.Second

// FuzzDecodeVsReference mutates one frame of a golden design point —
// payload bytes, slice table, header references — and requires the
// production decoder to agree with the reference decoder plane for plane,
// without panicking and within the time ceiling.
func FuzzDecodeVsReference(f *testing.F) {
	var bases []*Video
	for _, gc := range goldenCases(f) {
		if !strings.HasPrefix(gc.key, "crew_like/") {
			continue
		}
		sel := uint8(len(bases))
		bases = append(bases, gc.clean)
		// Seed with the golden set's damaged streams.
		for fi := 1; fi < len(gc.clean.Frames); fi += 2 {
			pick := sel | uint8(fi)<<4
			f.Add(gc.flipsHi.Frames[fi].Payload, pick, 0, 0, gc.clean.Frames[fi].RefFwd, gc.clean.Frames[fi].RefBwd)
			f.Add(gc.truncated.Frames[fi].Payload, pick, 0, 0, gc.clean.Frames[fi].RefFwd, gc.clean.Frames[fi].RefBwd)
		}
	}
	f.Add([]byte{}, uint8(0x10), 1000, -5, 7, 0)
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint8(0x23), 3, 1, -1, 1)
	f.Fuzz(func(t *testing.T, payload []byte, pick uint8, mbStart, byteStart, refFwd, refBwd int) {
		c := bases[int(pick&0x0F)%len(bases)].Clone()
		fr := c.Frames[int(pick>>4)%len(c.Frames)]
		fr.Payload = payload
		if mbStart != 0 || byteStart != 0 {
			fr.SliceMBStart = []int{0, mbStart}
			fr.SliceByteStart = []int{0, byteStart}
		}
		fr.RefFwd, fr.RefBwd = refFwd, refBwd
		want, err := refDecodeRecs(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			start := time.Now()
			got, err := decodeCoded(c, nil, workers)
			if took := time.Since(start); took > fuzzDecodeCeiling {
				t.Fatalf("decode took %v, ceiling %v", took, fuzzDecodeCeiling)
			}
			if err != nil {
				t.Fatalf("decode must tolerate arbitrary payloads, slice tables and references: %v", err)
			}
			comparePlanes(t, fmt.Sprintf("fuzzed stream workers=%d", workers), got, want)
		}
		checkReplayEqualsParse(t, "fuzzed stream", c)
	})
}

// TestChromaInterPredictMatchesReference drives the chroma compensation —
// interior row copies against the clamped accessor — over every partition
// shape, both vector scales, macroblocks at the corners, edges and interior
// of a small frame, and a vector grid reaching past every border.
func TestChromaInterPredictMatchesReference(t *testing.T) {
	ref := frame.MustNew(64, 64)
	rng := rand.New(rand.NewSource(41))
	rng.Read(ref.Cb)
	rng.Read(ref.Cr)
	grid := []int16{-predict.MaxMV, -predict.MaxMV + 1, -33, -32, -31, -17, -16, -15, 15, 16, 17, 31, 32, 33, predict.MaxMV - 1, predict.MaxMV}
	for v := int16(-9); v <= 9; v++ {
		grid = append(grid, v)
	}
	for shape := predict.PartitionShape(0); int(shape) < predict.NumPartShapes; shape++ {
		rects := predict.PartitionRects(shape)
		for _, mvDiv := range []int{2, 4} {
			for _, mby := range []int{0, 1, 3} {
				for _, mbx := range []int{0, 2, 3} {
					for _, vy := range grid {
						for _, vx := range grid {
							// A different vector per partition, all derived
							// from the grid point.
							var mvs [maxPartitions]predict.MV
							for i := range rects {
								mvs[i] = predict.ClampMV(predict.MV{X: vx + int16(3*i), Y: vy - int16(5*i)})
							}
							var gotCb, gotCr, wantCb, wantCr [64]uint8
							chromaInterPredict(gotCb[:], gotCr[:], 8, ref, mbx, mby, rects, &mvs, mvDiv)
							refChromaInterPredict(wantCb[:], wantCr[:], ref, mbx, mby, rects, mvs[:len(rects)], mvDiv)
							if gotCb != wantCb || gotCr != wantCr {
								t.Fatalf("shape %d mvDiv %d mb (%d,%d) mv (%d,%d): chroma prediction differs from the reference",
									shape, mvDiv, mbx, mby, vx, vy)
							}
						}
					}
				}
			}
		}
	}
}

// TestQPPredictionMatchesReference compares the slice-free median with the
// slice-building form at every macroblock of a small map, for every slice
// top.
func TestQPPredictionMatchesReference(t *testing.T) {
	const cols, rows = 5, 4
	rng := rand.New(rand.NewSource(42))
	qps := make([]int, cols*rows)
	for i := range qps {
		qps[i] = rng.Intn(52)
	}
	for top := 0; top < rows; top++ {
		for y := top; y < rows; y++ {
			for x := 0; x < cols; x++ {
				if got, want := qpPrediction(qps, x, y, cols, 26, top), refQPPrediction(qps, x, y, cols, 26, top); got != want {
					t.Fatalf("mb (%d,%d) slice top %d: %d, reference %d", x, y, top, got, want)
				}
			}
		}
	}
}

// TestDecodeAllocationBudget pins the allocation-free macroblock loop:
// decoding a 6-frame 320×176 chunk may allocate, beyond the output frames
// (a Frame and its three planes each, none when the pool has them), at most
// ten objects per frame. Before the rebuild it was about 1 290 per frame.
func TestDecodeAllocationBudget(t *testing.T) {
	for _, coder := range []EntropyKind{CABAC, CAVLC} {
		v := decodeChunkVideo(t, coder)
		allocs := testing.AllocsPerRun(10, func() {
			seq, err := DecodeContext(context.Background(), v, DecodeOptions{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range seq.Frames {
				frame.Recycle(f)
			}
		})
		n := float64(len(v.Frames))
		t.Logf("%s: %.0f allocations per %d-frame decode", coder, allocs, len(v.Frames))
		if budget := n * (4 + 10); allocs > budget {
			t.Fatalf("%s: %.0f allocations per decode, budget %.0f (%d frames × (4 for the output planes + 10))",
				coder, allocs, budget, len(v.Frames))
		}
	}
}
