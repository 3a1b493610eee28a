package predict

import (
	"math/rand"
	"testing"

	"videoapp/internal/frame"
)

// paddedPairs are 320×176 current/reference pairs for the padded search:
// shifted noise, on which searches converge on a vector and run into the
// borders, and smooth content, on which they meet ties.
func paddedPairs() map[string][2]*frame.Frame {
	const w, h = 320, 176
	ref := noiseFrame(w, h, 61)
	shifted := frame.MustNew(w, h)
	rng := rand.New(rand.NewSource(62))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			shifted.Y[y*w+x] = frame.ClampU8(int(ref.LumaAt(x+5, y-3)) + rng.Intn(7) - 3)
		}
	}
	return map[string][2]*frame.Frame{
		"shifted": {shifted, ref},
		"smooth":  {smoothFrame(w, h, 0.4), smoothFrame(w, h, 0.9)},
	}
}

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
// equivalence test: at every macroblock of a 320×176 frame — the four
// borders and corners included — and every partition of all seven shapes,
// for search ranges 1, 16, 32 and MaxMV and predictions at zero and at each
// ±MaxMV corner, the padded search returns MotionSearch's vector and cost.
func TestPaddedMotionSearchMatchesMotionSearch(t *testing.T) {
	t.Parallel()
	preds := []MV{{}, {MaxMV, MaxMV}, {-MaxMV, -MaxMV}, {MaxMV, -MaxMV}, {-MaxMV, MaxMV}}
	for name, pair := range paddedPairs() {
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

// TestPaddedMotionSearchHPMatchesMotionSearchHP: the half-pel search with
// its integer stage on the padded plane returns MotionSearchHP's vector and
// cost, at every macroblock and for every partition size, with predictions
// at the edge of the half-pel range.
func TestPaddedMotionSearchHPMatchesMotionSearchHP(t *testing.T) {
	t.Parallel()
	preds := []MV{{}, {5, -3}, {MaxMV, MaxMV}, {-MaxMV, -MaxMV}, {MaxMV - 1, -MaxMV + 1}}
	for name, pair := range paddedPairs() {
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
							wantMV, wantCost := MotionSearchHP(cur, ref, cx, cy, sz[0], sz[1], pred, sr)
							gotMV, gotCost := p.MotionSearchHP(cur, cx, cy, sz[0], sz[1], pred, sr)
							if gotMV != wantMV || gotCost != wantCost {
								t.Fatalf("%s %dx%d at (%d, %d) pred %v range %d: padded (%v, %d), MotionSearchHP (%v, %d)",
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
// outside the current frame, wider than a macroblock, outside a reference of
// another geometry — are searched on the frame, with MotionSearch's result.
func TestPaddedMotionSearchFallsBack(t *testing.T) {
	cur := noiseFrame(64, 48, 71)
	small := noiseFrame(32, 32, 72)
	var p Padded
	for _, c := range []struct {
		ref              *frame.Frame
		cx, cy, w, h, sr int
	}{
		{noiseFrame(64, 48, 73), -4, 8, 16, 16, 16},
		{noiseFrame(64, 48, 73), 56, 40, 16, 16, 16},
		{noiseFrame(64, 48, 73), 8, 8, 24, 8, 16},
		{small, 40, 24, 16, 16, MaxMV},
		{noiseFrame(96, 64, 74), 56, 40, 16, 16, 16},
	} {
		p.Pad(c.ref)
		wantMV, wantCost := MotionSearch(cur, c.ref, c.cx, c.cy, c.w, c.h, MV{3, -2}, c.sr)
		gotMV, gotCost := p.MotionSearch(cur, c.cx, c.cy, c.w, c.h, MV{3, -2}, c.sr)
		if gotMV != wantMV || gotCost != wantCost {
			t.Fatalf("%+v: padded (%v, %d), MotionSearch (%v, %d)", c, gotMV, gotCost, wantMV, wantCost)
		}
	}
}

// BenchmarkMotionSearchPadded is BenchmarkMotionSearch on a padded
// reference, plus a leg along the frame's border, where the frame-based
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
// border — BenchmarkMotionSearch's set; borderMBs are the others.
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
