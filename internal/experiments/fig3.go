package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
	"videoapp/internal/quality"
)

// Fig3Result is Figure 3: frame PSNR after a single bit flip as a function
// of the affected macroblock's position within the frame. The origin is the
// frame's top-left corner; damage decreases (PSNR increases) toward the
// bottom-right because coding errors only propagate forward in scan order.
type Fig3Result struct {
	MBCols, MBRows int
	// PSNR[y][x] is the mean frame PSNR (vs the clean decode) after one bit
	// flip in the macroblock at position (x, y), averaged over sampled
	// frames and videos.
	PSNR [][]float64
	// Samples counts flips measured per position.
	Samples int
}

// Figure3 reproduces the single-flip position sweep. Flips are injected into
// P frames and the damaged frame is decoded against clean references,
// excluding compensation effects exactly as the paper does (§3.1). suite is
// EncodeSuite(ctx, cfg).
func Figure3(ctx context.Context, cfg Config, suite []*EncodedVideo) (*Fig3Result, error) {
	if len(suite) == 0 {
		return nil, fmt.Errorf("experiments: empty suite")
	}
	mbCols := suite[0].Video.MBCols()
	mbRows := suite[0].Video.MBRows()
	sum := make([][]float64, mbRows)
	count := make([][]int, mbRows)
	for y := range sum {
		sum[y] = make([]float64, mbCols)
		count[y] = make([]int, mbCols)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	for _, ev := range suite {
		// Sample a few P frames spread across the video.
		var pFrames []int
		for i, f := range ev.Video.Frames {
			if f.Type == codec.FrameP {
				pFrames = append(pFrames, i)
			}
		}
		if len(pFrames) == 0 {
			continue
		}
		samplesPerVideo := cfg.Runs
		if samplesPerVideo < 1 {
			samplesPerVideo = 1
		}
		for s := 0; s < samplesPerVideo; s++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			fi := pFrames[rng.Intn(len(pFrames))]
			ef := ev.Video.Frames[fi]
			for my := 0; my < mbRows; my++ {
				for mx := 0; mx < mbCols; mx++ {
					mb := ef.MBs[my*mbCols+mx]
					if mb.BitLen < 2 {
						continue
					}
					c := ev.Video.ClonePooled()
					pos := mb.BitStart + rng.Int63n(int64(mb.BitLen))
					bitio.FlipBit(c.Frames[fi].Payload, pos)
					// Decode only the damaged frame against clean refs:
					// isolates coding errors from compensation errors.
					dec := codec.DecodeSingle(c, fi, ev.CleanRecs)
					c.Release()
					p, err := quality.PSNRFrame(ev.CleanRecs[fi], dec)
					if err != nil {
						return nil, err
					}
					sum[my][mx] += p
					count[my][mx]++
				}
			}
		}
	}
	res := &Fig3Result{MBCols: mbCols, MBRows: mbRows, PSNR: make([][]float64, mbRows)}
	for y := 0; y < mbRows; y++ {
		res.PSNR[y] = make([]float64, mbCols)
		for x := 0; x < mbCols; x++ {
			if count[y][x] > 0 {
				res.PSNR[y][x] = sum[y][x] / float64(count[y][x])
				res.Samples += count[y][x]
			} else {
				res.PSNR[y][x] = quality.MaxPSNR
			}
		}
	}
	return res, nil
}

// Corners summarizes the figure's headline contrast: mean PSNR in the
// top-left vs bottom-right quadrant.
func (r *Fig3Result) Corners() (topLeft, bottomRight float64) {
	var tl, br float64
	var ntl, nbr int
	for y := 0; y < r.MBRows; y++ {
		for x := 0; x < r.MBCols; x++ {
			if y < r.MBRows/2 && x < r.MBCols/2 {
				tl += r.PSNR[y][x]
				ntl++
			}
			if y >= r.MBRows/2 && x >= r.MBCols/2 {
				br += r.PSNR[y][x]
				nbr++
			}
		}
	}
	if ntl > 0 {
		topLeft = tl / float64(ntl)
	}
	if nbr > 0 {
		bottomRight = br / float64(nbr)
	}
	return
}

// String renders the PSNR surface as a table, mirroring Figure 3.
func (r *Fig3Result) String() string {
	header := []string{"MB y\\x"}
	for x := 0; x < r.MBCols; x++ {
		header = append(header, fmt.Sprintf("%d", x))
	}
	var rows [][]string
	for y := 0; y < r.MBRows; y++ {
		row := []string{fmt.Sprintf("%d", y)}
		for x := 0; x < r.MBCols; x++ {
			row = append(row, fmt.Sprintf("%.1f", r.PSNR[y][x]))
		}
		rows = append(rows, row)
	}
	tl, br := r.Corners()
	return fmt.Sprintf("Figure 3: frame PSNR (dB) after a single bit flip by MB position (%d samples)\n%s\ntop-left quadrant mean: %.1f dB, bottom-right: %.1f dB\n",
		r.Samples, renderTable(header, rows), tl, br)
}
