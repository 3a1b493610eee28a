// Package experiments regenerates every table and figure of the paper's
// evaluation (§6-§7) plus the §8 discussion ablations, on the synthetic
// video suite. Each experiment returns a typed result with a text rendering
// whose rows mirror what the paper reports.
//
// Two scales are provided: FastConfig runs in seconds for tests and CI;
// PaperConfig approaches the paper's 720p/500-frame scale and is intended
// for the cmd/experiments binary.
//
// Every experiment takes a context and stops with its error once the
// context is cancelled; the pipeline stages run through their one
// context-first entry point at one worker.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/frame"
	"videoapp/internal/quality"
	"videoapp/internal/store"
	"videoapp/internal/synth"
)

// Config scales the experiment suite.
type Config struct {
	// W, H, Frames control the synthetic sequence size.
	W, H, Frames int
	// Presets names the synth presets used (empty = all 14).
	Presets []string
	// CRF is the encoder quality target (the paper uses 24/20/16).
	CRF int
	// GOPSize is the I-frame interval.
	GOPSize int
	// Runs is the Monte-Carlo repetition count (paper: 30).
	Runs int
	// Seed drives all stochastic components.
	Seed int64
	// Entropy selects the entropy coder (paper default: CABAC).
	Entropy codec.EntropyKind
}

// FastConfig is a seconds-scale configuration for tests.
func FastConfig() Config {
	return Config{
		W: 96, H: 64, Frames: 12,
		Presets: []string{"crew_like", "news_like"},
		CRF:     24, GOPSize: 12, Runs: 3, Seed: 1,
	}
}

// DefaultConfig is the medium scale used by benchmarks: large enough for
// stable trends, small enough for minutes-scale full reproduction.
func DefaultConfig() Config {
	return Config{
		W: 320, H: 176, Frames: 60,
		CRF: 24, GOPSize: 30, Runs: 10, Seed: 1,
	}
}

// PaperConfig approaches the paper's experimental scale. Expect long runs.
func PaperConfig() Config {
	return Config{
		W: 1280, H: 720, Frames: 500,
		CRF: 24, GOPSize: 60, Runs: 30, Seed: 1,
	}
}

func (c Config) presets() []synth.Config {
	names := c.Presets
	var out []synth.Config
	if len(names) == 0 {
		for _, p := range synth.Presets {
			out = append(out, p.ScaleTo(c.W, c.H, c.Frames))
		}
		return out
	}
	for _, n := range names {
		p, ok := synth.PresetByName(n)
		if ok {
			out = append(out, p.ScaleTo(c.W, c.H, c.Frames))
		}
	}
	return out
}

func (c Config) params() codec.Params {
	p := codec.DefaultParams()
	p.CRF = c.CRF
	p.GOPSize = c.GOPSize
	p.Entropy = c.Entropy
	p.SearchRange = 8
	return p
}

// workers is the worker count of every pipeline stage the experiments run:
// each stage's output is identical at any worker count, and the suite
// members are processed one at a time.
const workers = 1

// EncodedVideo bundles everything the experiments reuse per suite member.
type EncodedVideo struct {
	Name     string
	Seq      *frame.Sequence
	Video    *codec.Video
	Analysis *core.Analysis
	// CleanRecs are the coded-order reconstructions of the undamaged video.
	CleanRecs []*frame.Frame
	// CleanPSNR is the sequence PSNR of the clean decode against Seq, the
	// mean of CleanFramePSNR, cached for quality-change math.
	CleanPSNR float64
	// CleanFramePSNR is the per-display-frame clean PSNR.
	CleanFramePSNR []float64
}

// EncodeSuite encodes, decodes and analyzes every suite member once. The
// figures that measure the base configuration all take its result, so one
// reproduction encodes the suite once per CRF.
func EncodeSuite(ctx context.Context, cfg Config) ([]*EncodedVideo, error) {
	var out []*EncodedVideo
	params := cfg.params()
	for _, pc := range cfg.presets() {
		ev, err := encodeVideo(ctx, pc.Name, synth.Generate(pc), params)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// encodeVideo encodes, decodes and analyzes one sequence.
func encodeVideo(ctx context.Context, name string, seq *frame.Sequence, params codec.Params) (*EncodedVideo, error) {
	v, err := codec.EncodeParallelContext(ctx, seq, params, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: encode %s: %w", name, err)
	}
	clean, err := codec.DecodeContext(ctx, v, codec.DecodeOptions{}, workers)
	if err != nil {
		return nil, err
	}
	recs := make([]*frame.Frame, len(v.Frames))
	for i, ef := range v.Frames {
		recs[i] = clean.Frames[ef.DisplayIdx]
	}
	// The sequence PSNR is the mean of the per-frame values, summed in
	// display order.
	framePSNR := make([]float64, len(clean.Frames))
	var psnrSum float64
	for d := range clean.Frames {
		framePSNR[d], err = quality.PSNRFrame(seq.Frames[d], clean.Frames[d])
		if err != nil {
			return nil, err
		}
		psnrSum += framePSNR[d]
	}
	an, err := core.AnalyzeContext(ctx, v, core.DefaultOptions(), workers)
	if err != nil {
		return nil, err
	}
	return &EncodedVideo{
		Name:           name,
		Seq:            seq,
		Video:          v,
		Analysis:       an,
		CleanRecs:      recs,
		CleanPSNR:      psnrSum / float64(len(clean.Frames)),
		CleanFramePSNR: framePSNR,
	}, nil
}

// damagedPSNR returns the sequence PSNR against ev.Seq of damaged, a copy
// of ev.Video whose changed payloads dirty marks by coded index: the value
// quality.PSNRContext gives for codec.DecodeContext of damaged. Walking
// coded order, it decodes a frame again only when the frame is dirty or its
// header's RefFwd or RefBwd names a frame decoded again; every other frame
// keeps its clean reconstruction and cached clean PSNR. This needs the
// headers of damaged to be ev.Video's, which holds for every damaged copy
// here: the store keeps headers precise and the figures flip payload bits.
// The sum runs in display order, as PSNRContext's does.
func damagedPSNR(ev *EncodedVideo, damaged *codec.Video, dirty []bool) (float64, error) {
	recs := slices.Clone(ev.CleanRecs)
	framePSNR := slices.Clone(ev.CleanFramePSNR)
	redone := make([]bool, len(recs))
	reaches := func(ref int) bool { return ref >= 0 && redone[ref] }
	for i, ef := range damaged.Frames {
		if !dirty[i] && !reaches(ef.RefFwd) && !reaches(ef.RefBwd) {
			continue
		}
		recs[i] = codec.DecodeSingle(damaged, i, recs)
		redone[i] = true
		p, err := quality.PSNRFrame(ev.Seq.Frames[ef.DisplayIdx], recs[i])
		if err != nil {
			return 0, err
		}
		framePSNR[ef.DisplayIdx] = p
	}
	var sum float64
	for _, p := range framePSNR {
		sum += p
	}
	return sum / float64(len(framePSNR)), nil
}

// worstStoredLoss runs the Monte-Carlo store round trips of Figure 11 and
// the scrub sweep: runs trips of ev through sys, trip r seeded with
// seed + r*stride, each damaged copy measured against the original. It
// returns the largest PSNR loss against the clean decode (the paper's
// conservative convention charges each video its worst trip) and the
// residual flips of all trips.
func worstStoredLoss(ctx context.Context, sys *store.System, ev *EncodedVideo, parts []core.FramePartition, runs int, seed, stride int64) (worst float64, flips int, err error) {
	dirty := make([]bool, len(ev.Video.Frames))
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(seed + int64(run)*stride))
		stored, n, err := sys.StoreContext(ctx, ev.Video, parts, store.StoreOpts{Rng: rng})
		if err != nil {
			return 0, 0, err
		}
		flips += n
		for i, ef := range stored.Frames {
			dirty[i] = !bytes.Equal(ef.Payload, ev.Video.Frames[i].Payload)
		}
		p, err := damagedPSNR(ev, stored, dirty)
		stored.Release()
		if err != nil {
			return 0, 0, err
		}
		if loss := ev.CleanPSNR - p; loss > worst {
			worst = loss
		}
	}
	return worst, flips, nil
}

// renderTable formats rows with aligned columns for terminal output.
func renderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
