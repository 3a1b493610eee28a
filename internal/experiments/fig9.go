package experiments

import (
	"context"
	"fmt"
	"math"
)

// DefaultErrorRates is the x-axis of Figures 9 and 10.
var DefaultErrorRates = []float64{1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}

// NumBins is the paper's bin count for the §7.1 validation.
const NumBins = 16

// Fig9Result is Figure 9: per-bin quality degradation curves (a) and the
// maximum importance per bin (b).
type Fig9Result struct {
	Rates []float64
	// Loss[bin][rate] is the mean quality change in dB (negative = loss),
	// averaged over the suite; bin 0 holds the least important bits.
	Loss [][]float64
	// MaxImportanceLog2[bin] is Figure 9(b): log2 of the largest MB
	// importance in the bin, averaged over the suite.
	MaxImportanceLog2 []float64
}

// Figure9 reproduces the bin-injection validation experiment: sort all MBs
// by importance, divide into 16 equal-storage bins, inject errors into one
// bin at a time at each rate, and measure the quality change. suite is
// EncodeSuite(ctx, cfg).
func Figure9(ctx context.Context, cfg Config, suite []*EncodedVideo) (*Fig9Result, error) {
	rates := DefaultErrorRates
	res := &Fig9Result{
		Rates:             rates,
		Loss:              make([][]float64, NumBins),
		MaxImportanceLog2: make([]float64, NumBins),
	}
	for b := range res.Loss {
		res.Loss[b] = make([]float64, len(rates))
	}
	for _, ev := range suite {
		bins := equalStorageBins(sortedByImportance(ev), NumBins)
		// Per-video bin maxima; empty bins (a single huge macroblock can
		// span several bins' worth of storage) inherit their predecessor so
		// Figure 9(b) stays monotone.
		binMax := make([]float64, NumBins)
		run := 1.0
		for b, bin := range bins {
			for _, m := range bin {
				if m.Importance > run {
					run = m.Importance
				}
			}
			binMax[b] = run
		}
		for b, bin := range bins {
			res.MaxImportanceLog2[b] += math.Log2(binMax[b])
			if len(bin) == 0 {
				continue
			}
			region := newBitRegion(bin)
			for ri, p := range rates {
				mean, err := measureRegionLoss(ctx, ev, region, p, cfg.Runs, cfg.Seed+int64(b*1000+ri))
				if err != nil {
					return nil, err
				}
				res.Loss[b][ri] += mean
			}
		}
	}
	n := float64(len(suite))
	for b := range res.Loss {
		res.MaxImportanceLog2[b] /= n
		for ri := range res.Loss[b] {
			res.Loss[b][ri] /= n
		}
	}
	return res, nil
}

// OrderViolations counts (bin, rate) pairs where a higher-importance bin
// lost less quality than a lower-importance bin — the §7.1 validation
// criterion (the order of the curves must follow the bin order).
func (r *Fig9Result) OrderViolations(tolerance float64) int {
	violations := 0
	for ri := range r.Rates {
		for b := 1; b < len(r.Loss); b++ {
			if r.Loss[b][ri] > r.Loss[b-1][ri]+tolerance {
				violations++
			}
		}
	}
	return violations
}

// String renders both panels.
func (r *Fig9Result) String() string {
	header := []string{"bin"}
	for _, p := range r.Rates {
		header = append(header, fmt.Sprintf("%.0e", p))
	}
	header = append(header, "maxImp(log2)")
	var rows [][]string
	for b := range r.Loss {
		row := []string{fmt.Sprintf("%d", b)}
		for _, v := range r.Loss[b] {
			row = append(row, fmt.Sprintf("%+.3f", v))
		}
		row = append(row, fmt.Sprintf("%.1f", r.MaxImportanceLog2[b]))
		rows = append(rows, row)
	}
	return "Figure 9: quality change (dB) per equal-storage importance bin vs error rate\n" +
		renderTable(header, rows)
}
