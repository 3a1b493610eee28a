package experiments

import (
	"context"
	"fmt"
	"math"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/synth"
)

// AblateRow is one encoder configuration of the §8 discussion: how GOP and
// B-frame choices polarize the importance distribution and what they cost
// in storage.
type AblateRow struct {
	Name string
	// PayloadBits is the total coded size (storage cost of the option).
	PayloadBits int64
	// LowImportanceFrac is the fraction of payload bits whose macroblock
	// importance is at most 4 (class <= 2): the approximable share.
	LowImportanceFrac float64
	// MaxImportanceLog2 characterizes the head of the distribution.
	MaxImportanceLog2 float64
}

// AblateResult is the §8 encoder-option sweep.
type AblateResult struct {
	Rows []AblateRow
}

// AblateEncoderOptions measures how the §8 options change approximability:
// more B frames (unreferenced when BReference is false) polarize bits into
// important and unimportant, at some storage cost; shorter GOPs bound
// propagation similarly.
func AblateEncoderOptions(ctx context.Context, cfg Config) (*AblateResult, error) {
	type variant struct {
		name string
		mut  func(*codec.Params)
	}
	variants := []variant{
		{"baseline", func(p *codec.Params) {}},
		{"B=2 unreferenced", func(p *codec.Params) { p.BFrames = 2 }},
		{"B=2 referenced", func(p *codec.Params) { p.BFrames = 2; p.BReference = true }},
		{"GOP/2", func(p *codec.Params) { p.GOPSize /= 2 }},
		{"CAVLC", func(p *codec.Params) { p.Entropy = codec.CAVLC }},
		{"slices=4", func(p *codec.Params) { p.SlicesPerFrame = 4 }},
		{"halfpel", func(p *codec.Params) { p.HalfPel = true }},
		{"deblock", func(p *codec.Params) { p.Deblock = true }},
	}
	// Each preset is rendered once and encoded under every variant; each
	// row still sums its presets in suite order.
	params := make([]codec.Params, len(variants))
	rows := make([]AblateRow, len(variants))
	lowBits := make([]int64, len(variants))
	for vi, v := range variants {
		params[vi] = cfg.params()
		// B-frame GOPs must align.
		if params[vi].GOPSize%3 != 0 {
			params[vi].GOPSize = (params[vi].GOPSize/3 + 1) * 3
		}
		v.mut(&params[vi])
		rows[vi].Name = v.name
	}
	for _, pc := range cfg.presets() {
		seq := synth.Generate(pc)
		for vi, v := range variants {
			video, err := codec.EncodeParallelContext(ctx, seq, params[vi], workers)
			if err != nil {
				return nil, fmt.Errorf("experiments: ablate %s: %w", v.name, err)
			}
			an, err := core.AnalyzeContext(ctx, video, core.DefaultOptions(), workers)
			if err != nil {
				return nil, err
			}
			row := &rows[vi]
			for _, m := range an.MBBitRanges() {
				row.PayloadBits += m.BitLen
				if core.Class(m.Importance) <= 2 {
					lowBits[vi] += m.BitLen
				}
			}
			if l2 := log2(an.MaxImportance()); l2 > row.MaxImportanceLog2 {
				row.MaxImportanceLog2 = l2
			}
		}
	}
	for vi := range rows {
		if rows[vi].PayloadBits > 0 {
			rows[vi].LowImportanceFrac = float64(lowBits[vi]) / float64(rows[vi].PayloadBits)
		}
	}
	return &AblateResult{Rows: rows}, nil
}

func log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// String renders the sweep.
func (r *AblateResult) String() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%d", row.PayloadBits),
			fmt.Sprintf("%.1f%%", row.LowImportanceFrac*100),
			fmt.Sprintf("%.1f", row.MaxImportanceLog2),
		})
	}
	return "Section 8: encoder options vs approximability\n" +
		renderTable([]string{"Variant", "PayloadBits", "Approximable", "MaxImp(log2)"}, rows)
}
