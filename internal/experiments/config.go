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
	"context"
	"fmt"
	"math/rand"
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
	// CleanRecs are the coded-order reconstructions of the undamaged video:
	// the frames of Clean, indexed by coded position.
	CleanRecs []*frame.Frame
	// Clean is the display-order clean decode.
	Clean *frame.Sequence
	// CleanPSNR is PSNR(Seq, Clean), the mean of CleanFramePSNR, cached for
	// quality-change math.
	CleanPSNR float64
	// CleanFramePSNR is the per-display-frame clean PSNR.
	CleanFramePSNR []float64
	// Pixels is the total luma pixel count.
	Pixels int64
}

// EncodeSuite encodes, decodes and analyzes every suite member once.
func EncodeSuite(ctx context.Context, cfg Config) ([]*EncodedVideo, error) {
	var out []*EncodedVideo
	params := cfg.params()
	for _, pc := range cfg.presets() {
		seq := synth.Generate(pc)
		v, err := codec.EncodeParallelContext(ctx, seq, params, workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: encode %s: %w", pc.Name, err)
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
		out = append(out, &EncodedVideo{
			Name:           pc.Name,
			Seq:            seq,
			Video:          v,
			Analysis:       an,
			CleanRecs:      recs,
			Clean:          clean,
			CleanPSNR:      psnrSum / float64(len(clean.Frames)),
			CleanFramePSNR: framePSNR,
			Pixels:         seq.PixelCount(),
		})
	}
	return out, nil
}

// worstStoredLoss runs the Monte-Carlo store round trips of Figure 11 and
// the scrub sweep: runs trips of ev through sys, trip r seeded with
// seed + r*stride, each damaged copy decoded and measured against the
// original. It returns the largest PSNR loss against the clean decode (the
// paper's conservative convention charges each video its worst trip) and
// the residual flips of all trips.
func worstStoredLoss(ctx context.Context, sys *store.System, ev *EncodedVideo, parts []core.FramePartition, runs int, seed, stride int64) (worst float64, flips int, err error) {
	for run := 0; run < runs; run++ {
		rng := rand.New(rand.NewSource(seed + int64(run)*stride))
		stored, n, err := sys.StoreContext(ctx, ev.Video, parts, store.StoreOpts{Rng: rng})
		if err != nil {
			return 0, 0, err
		}
		flips += n
		if n == 0 {
			stored.Release()
			continue
		}
		dec, err := codec.DecodeContext(ctx, stored, codec.DecodeOptions{}, workers)
		stored.Release()
		if err != nil {
			return 0, 0, err
		}
		p, err := quality.PSNRContext(ctx, ev.Seq, dec, workers)
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
