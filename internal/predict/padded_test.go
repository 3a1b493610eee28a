package predict

import (
	"testing"

	"videoapp/internal/frame"
)

// checkPadded requires every sample of p, margin included, to be the clamped
// sample LumaAt reads from ref.
func checkPadded(t *testing.T, p *Padded, ref *frame.Frame) {
	t.Helper()
	if p.src != ref {
		t.Fatal("Padded does not refer to the frame it was padded from")
	}
	for y := -padMargin; y < ref.H+padMargin; y++ {
		for x := -padMargin; x < ref.W+padMargin; x++ {
			if got, want := p.pix[(y+padMargin)*p.stride+x+padMargin], ref.LumaAt(x, y); got != want {
				t.Fatalf("%dx%d: padded sample (%d, %d) = %d, LumaAt %d", ref.W, ref.H, x, y, got, want)
			}
		}
	}
}

// TestPaddedSamplesMatchLumaAt: every sample of the padded plane — interior,
// the four margins and the four corners — is the edge-clamped sample, also
// when the buffer is reused for another geometry.
func TestPaddedSamplesMatchLumaAt(t *testing.T) {
	var p Padded
	for _, sz := range [][2]int{{320, 176}, {48, 32}, {16, 16}, {320, 176}, {64, 96}} {
		f := noiseFrame(sz[0], sz[1], int64(sz[0]+sz[1]))
		p.Pad(f)
		checkPadded(t, &p, f)
	}
}

// TestPaddedMotionSearchMatchesMotionSearch is the padded search's
// equivalence test: at every macroblock of the searchPairs frames — the four
// borders and corners included — and every partition of all seven shapes,
// for search ranges 1, 16, 32 and MaxMV and predictions at zero and at each
// ±MaxMV corner, the padded search returns MotionSearch's vector and cost.
func TestPaddedMotionSearchMatchesMotionSearch(t *testing.T) {
	t.Parallel()
	preds := []MV{{}, {MaxMV, MaxMV}, {-MaxMV, -MaxMV}, {MaxMV, -MaxMV}, {-MaxMV, MaxMV}}
	for name, pair := range searchPairs() {
		cur, ref := pair[0], pair[1]
		var p Padded
		p.Pad(ref)
		for s := PartitionShape(0); s < numPartShapes; s++ {
			for my := 0; my < cur.MBRows(); my++ {
				for mx := 0; mx < cur.MBCols(); mx++ {
					for _, r := range PartitionRects(s) {
						cx, cy := mx*frame.MBSize+r.X, my*frame.MBSize+r.Y
						for _, pred := range preds {
							for _, sr := range []int{1, 16, 32, MaxMV} {
								wantMV, wantCost := MotionSearch(cur, ref, cx, cy, r.W, r.H, pred, sr)
								gotMV, gotCost := p.MotionSearch(cur, cx, cy, r.W, r.H, pred, sr)
								if gotMV != wantMV || gotCost != wantCost {
									t.Fatalf("%s %dx%d at (%d, %d) pred %v range %d: padded (%v, %d), MotionSearch (%v, %d)",
										name, r.W, r.H, cx, cy, pred, sr, gotMV, gotCost, wantMV, wantCost)
								}
							}
						}
					}
				}
			}
		}
	}
}

// frameMotionSearchHP is Padded.MotionSearchHP with its integer stage on the
// frame, through SADLimit's gathered border rows, instead of the padded plane.
func frameMotionSearchHP(cur, ref *frame.Frame, cx, cy, w, h int, pred MV, searchRange int) (MV, int) {
	intPred := MV{X: pred.X / 2, Y: pred.Y / 2}
	intBest, _ := motionSearch(cur, ref, nil, cx, cy, w, h, intPred, min(searchRange, MaxMV/2-1), MaxMV/2)
	return refineHP(cur, ref, cx, cy, w, h, pred, intBest)
}

// TestPaddedMotionSearchHPMatchesMotionSearchHP: the half-pel search with
// its integer stage on the padded plane returns the vector and cost of the
// same search on the frame (frameMotionSearchHP), at every macroblock and
// for every partition size, with predictions at the edge of the half-pel
// range, where refRefineHP is no oracle.
func TestPaddedMotionSearchHPMatchesMotionSearchHP(t *testing.T) {
	t.Parallel()
	preds := []MV{{}, {5, -3}, {MaxMV, MaxMV}, {-MaxMV, -MaxMV}, {MaxMV - 1, -MaxMV + 1}}
	for name, pair := range searchPairs() {
		cur, ref := pair[0], pair[1]
		var p Padded
		p.Pad(ref)
		for _, sz := range rectSizes() {
			for my := 0; my < cur.MBRows(); my++ {
				for mx := 0; mx < cur.MBCols(); mx++ {
					// The partition of this size in the macroblock's
					// bottom-right corner, so right and bottom borders are met.
					cx, cy := mx*frame.MBSize+frame.MBSize-sz[0], my*frame.MBSize+frame.MBSize-sz[1]
					for _, pred := range preds {
						for _, sr := range []int{1, 16, MaxMV} {
							wantMV, wantCost := frameMotionSearchHP(cur, ref, cx, cy, sz[0], sz[1], pred, sr)
							gotMV, gotCost := p.MotionSearchHP(cur, cx, cy, sz[0], sz[1], pred, sr)
							if gotMV != wantMV || gotCost != wantCost {
								t.Fatalf("%s %dx%d at (%d, %d) pred %v range %d: padded (%v, %d), frame (%v, %d)",
									name, sz[0], sz[1], cx, cy, pred, sr, gotMV, gotCost, wantMV, wantCost)
							}
						}
					}
				}
			}
		}
	}
}

// TestPaddedMotionSearchFallsBack: rectangles the padded plane cannot serve —
// outside the current frame by one sample or more on every side, outside a
// reference of another geometry, by one sample on its right and bottom too —
// are searched on the frame, with refMotionSearch's result, for predictions
// at zero and towards each ±MaxMV corner.
func TestPaddedMotionSearchFallsBack(t *testing.T) {
	cur := noiseFrame(64, 48, 71)
	same, small, narrow, large := noiseFrame(64, 48, 73), noiseFrame(32, 32, 72), noiseFrame(48, 32, 75), noiseFrame(96, 64, 74)
	preds := []MV{{3, -2}, {MaxMV, MaxMV}, {-MaxMV, -MaxMV}, {MaxMV, -MaxMV}, {-MaxMV, MaxMV}}
	var p Padded
	for _, c := range []struct {
		ref              *frame.Frame
		cx, cy, w, h, sr int
	}{
		{same, -4, 8, 16, 16, 16},
		{same, 56, 40, 16, 16, 16},
		{same, -1, 16, 16, 16, MaxMV},
		{same, 49, 16, 16, 16, MaxMV},
		{same, 16, -1, 16, 16, MaxMV},
		{same, 16, 33, 16, 16, MaxMV},
		{small, 40, 24, 16, 16, MaxMV},
		{narrow, 33, 8, 16, 16, MaxMV},
		{narrow, 8, 17, 16, 16, MaxMV},
		{large, 56, 40, 16, 16, 16},
	} {
		p.Pad(c.ref)
		for _, pred := range preds {
			wantMV, wantCost := refMotionSearch(cur, c.ref, c.cx, c.cy, c.w, c.h, pred, c.sr)
			gotMV, gotCost := p.MotionSearch(cur, c.cx, c.cy, c.w, c.h, pred, c.sr)
			if gotMV != wantMV || gotCost != wantCost {
				t.Fatalf("%dx%d reference, %dx%d at (%d, %d) pred %v range %d: padded (%v, %d), reference (%v, %d)",
					c.ref.W, c.ref.H, c.w, c.h, c.cx, c.cy, pred, c.sr, gotMV, gotCost, wantMV, wantCost)
			}
		}
	}
}

// BenchmarkMotionSearchPadded measures the search loop the encoder runs per
// partition — word-wide SAD with early termination against the running
// minimum — on the frame and on a padded reference, for the interior
// macroblocks of a 128×128 frame and along its border, where the frame-based
// search gathers clamped rows and the padded one does not.
func BenchmarkMotionSearchPadded(b *testing.B) {
	cur, ref := benchFrames(128, 128)
	var p Padded
	p.Pad(ref)
	for _, leg := range []struct {
		name string
		mbs  [][2]int
	}{
		{"interior", interiorMBs(8)},
		{"border", borderMBs(8)},
	} {
		b.Run(leg.name+"/frame", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, mb := range leg.mbs {
					MotionSearch(cur, ref, mb[0]*16, mb[1]*16, 16, 16, MV{}, 16)
				}
			}
		})
		b.Run(leg.name+"/padded", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, mb := range leg.mbs {
					p.MotionSearch(cur, mb[0]*16, mb[1]*16, 16, 16, MV{}, 16)
				}
			}
		})
	}
}

// interiorMBs are the macroblocks of an n×n-macroblock frame not on its
// border; borderMBs are the others.
func interiorMBs(n int) [][2]int {
	var out [][2]int
	for my := 1; my < n-1; my++ {
		for mx := 1; mx < n-1; mx++ {
			out = append(out, [2]int{mx, my})
		}
	}
	return out
}

func borderMBs(n int) [][2]int {
	var out [][2]int
	for my := 0; my < n; my++ {
		for mx := 0; mx < n; mx++ {
			if mx == 0 || my == 0 || mx == n-1 || my == n-1 {
				out = append(out, [2]int{mx, my})
			}
		}
	}
	return out
}
