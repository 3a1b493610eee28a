package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"videoapp"
	"videoapp/internal/y4m"
)

// command is one row of the command table: cliMain dispatches on it, validate
// enforces requires, and the unknown-command diagnostic lists its keys.
type command struct {
	run func(ctx context.Context, o options) error
	// requires names the input the command cannot run without, if any; input
	// resolves it from the flags ("" when absent).
	requires string
	input    func(o options) string
}

var commands = map[string]command{
	"gen":     {run: runGen},
	"encode":  {run: runEncode},
	"decode":  {run: runDecode},
	"info":    {run: runInfo},
	"analyze": {run: runAnalyze},
	"heatmap": {run: runHeatmap},
	"store":   {run: runStore},
	"archive": {run: runArchive},
	"presets": {run: runPresets},
	"chunk":   {run: runChunk, requires: "-archive FILE", input: func(o options) string { return o.archive }},
	"scrub":   {run: runScrub, requires: "-archive FILE", input: func(o options) string { return o.archive }},
	"serve": {run: serveCatalog, requires: "-archive FILE (or -archive-dir DIR)",
		input: func(o options) string { return o.archiveDir + o.archive }},
}

func runPresets(context.Context, options) error {
	for _, n := range videoapp.PresetNames() {
		fmt.Println(n)
	}
	return nil
}

func runGen(_ context.Context, o options) error {
	seq, err := videoapp.GenerateTestVideo(o.preset, o.w, o.h, o.frames)
	if err != nil {
		return err
	}
	return writeOut(o.out, func(f *os.File) error { return y4m.Write(f, seq) })
}

func runEncode(ctx context.Context, o options) error {
	seq, err := o.loadRaw()
	if err != nil {
		return err
	}
	v, err := videoapp.EncodeContext(ctx, seq, o.params(), o.workers)
	if err != nil {
		return err
	}
	data := videoapp.Marshal(v)
	fmt.Printf("encoded %d frames: %d payload bits (%.3f bits/pixel), container %d bytes\n",
		len(v.Frames), v.TotalPayloadBits(),
		float64(v.TotalPayloadBits())/float64(seq.PixelCount()), len(data))
	clean, err := videoapp.DecodeContext(ctx, v, o.workers)
	if err != nil {
		return err
	}
	rep, err := videoapp.MeasureContext(ctx, seq, clean, o.workers)
	if err != nil {
		return err
	}
	fmt.Printf("quality: PSNR %.2f dB, SSIM %.4f, MS-SSIM %.4f, VIF %.4f\n",
		rep.PSNR, rep.SSIM, rep.MSSSIM, rep.VIF)
	if o.out != "" {
		return os.WriteFile(o.out, data, 0o644)
	}
	return nil
}

func runDecode(ctx context.Context, o options) error {
	v, _, err := o.loadVideo(ctx)
	if err != nil {
		return err
	}
	seq, err := videoapp.DecodeContext(ctx, v, o.workers)
	if err != nil {
		return err
	}
	return writeOut(o.out, func(f *os.File) error { return y4m.Write(f, seq) })
}

func runInfo(ctx context.Context, o options) error {
	v, _, err := o.loadVideo(ctx)
	if err != nil {
		return err
	}
	types := map[string]int{}
	for _, f := range v.Frames {
		types[f.Type.String()]++
	}
	fmt.Printf("%dx%d @ %d fps, %d frames (I:%d P:%d B:%d), %s, CRF %d, GOP %d, %d slice(s)\n",
		v.W, v.H, v.FPS, len(v.Frames), types["I"], types["P"], types["B"],
		v.Params.Entropy, v.Params.CRF, v.Params.GOPSize, max(v.Params.SlicesPerFrame, 1))
	fmt.Printf("payload: %d bits, headers: %d bits\n", v.TotalPayloadBits(), v.HeaderBits())
	return nil
}

func runHeatmap(ctx context.Context, o options) error {
	v, _, err := o.loadVideo(ctx)
	if err != nil {
		return err
	}
	an, err := videoapp.AnalyzeContext(ctx, v, o.workers)
	if err != nil {
		return err
	}
	return writeOut(o.out, func(f *os.File) error { return writeHeatmapPGM(f, v, an) })
}

func runAnalyze(ctx context.Context, o options) error {
	v, _, err := o.loadVideo(ctx)
	if err != nil {
		return err
	}
	an, err := videoapp.AnalyzeContext(ctx, v, o.workers)
	if err != nil {
		return err
	}
	parts := an.Partition(videoapp.PaperAssignment())
	fmt.Printf("max importance: %.0f MBs\n", an.MaxImportance())
	for f, fp := range parts {
		if f > 4 && f < len(parts)-1 {
			if f == 5 {
				fmt.Println("  ...")
			}
			continue
		}
		fmt.Printf("  frame %3d (%s): %d pivots:", f, v.Frames[f].Type, len(fp.Pivots))
		for _, pv := range fp.Pivots {
			fmt.Printf(" [bit %d -> %s]", pv.Bit, pv.Scheme.Name)
		}
		fmt.Println()
	}
	return nil
}

func runStore(ctx context.Context, o options) error {
	v, seq, err := o.loadVideo(ctx)
	if err != nil {
		return err
	}
	// Container inputs carry their own encoder parameters, which must
	// win over the flag defaults; append so they override in order.
	p := videoapp.NewPipeline(append(o.pipelineOptions(), videoapp.WithParams(v.Params))...)
	if seq == nil {
		// Container input: measure against the clean decode.
		if seq, err = videoapp.DecodeContext(ctx, v, o.workers); err != nil {
			return err
		}
	}
	res, err := p.ProcessContext(ctx, seq)
	if err != nil {
		return err
	}
	fmt.Printf("storage footprint: %.0f cells, %.4f cells/pixel, ECC overhead %.1f%%\n",
		res.Stats.Cells, res.Stats.CellsPerPixel, res.Stats.ECCOverhead*100)
	for name, bits := range res.Stats.PerScheme {
		fmt.Printf("  %-7s %12d bits\n", name, bits)
	}
	clean, err := videoapp.DecodeContext(ctx, res.Video, o.workers)
	if err != nil {
		return err
	}
	dec, flips, err := res.StoreRoundTripContext(ctx, o.seed)
	if err != nil {
		return err
	}
	p0, _ := videoapp.PSNRContext(ctx, seq, clean, o.workers)
	p1, _ := videoapp.PSNRContext(ctx, seq, dec, o.workers)
	fmt.Printf("round trip: %d residual bit errors, PSNR %.2f dB (clean %.2f, loss %.3f dB)\n",
		flips, p1, p0, p0-p1)
	return nil
}

func runArchive(ctx context.Context, o options) error {
	src, closeSrc, err := o.streamSource()
	if err != nil {
		return err
	}
	p := videoapp.NewPipeline(o.pipelineOptions()...)
	err = writeOut(o.out, func(f *os.File) error {
		meta, stats, err := p.StreamToArchive(ctx, src, f)
		if err != nil {
			return err
		}
		fmt.Printf("archived %dx%d @ %d fps in %d-GOP chunks (GOP %d)\n",
			meta.W, meta.H, meta.FPS, meta.GOPsPerChunk, meta.GOPSize)
		fmt.Printf("storage footprint: %.0f cells, %.4f cells/pixel, ECC overhead %.1f%%\n",
			stats.Cells, stats.CellsPerPixel, stats.ECCOverhead*100)
		return nil
	})
	if cerr := closeSrc(); err == nil {
		err = cerr
	}
	return err
}

// writeHeatmapPGM renders the per-macroblock importance of every frame as a
// tiled grayscale image (one tile per frame, log-scaled), a quick visual
// check of the Figure 2(c)/Figure 4 dependency structure.
func writeHeatmapPGM(f *os.File, v *videoapp.Video, an *videoapp.Analysis) error {
	mbCols, mbRows := v.MBCols(), v.MBRows()
	tiles := len(v.Frames)
	cols := 1
	for cols*cols < tiles {
		cols++
	}
	rows := (tiles + cols - 1) / cols
	imgW, imgH := cols*(mbCols+1), rows*(mbRows+1)
	pix := make([]uint8, imgW*imgH)
	maxLog := math.Log2(an.MaxImportance() + 1)
	if maxLog <= 0 {
		maxLog = 1
	}
	for fi := range v.Frames {
		ox, oy := (fi%cols)*(mbCols+1), (fi/cols)*(mbRows+1)
		for m, imp := range an.Importance[fi] {
			level := math.Log2(imp+1) / maxLog
			x, y := ox+m%mbCols, oy+m/mbCols
			pix[y*imgW+x] = uint8(255 * level)
		}
	}
	if _, err := fmt.Fprintf(f, "P5\n%d %d\n255\n", imgW, imgH); err != nil {
		return err
	}
	_, err := f.Write(pix)
	return err
}
