package experiments

import (
	"context"
	"fmt"
	"math"

	"videoapp/internal/core"
)

// Fig10Result is Figure 10: cumulative quality loss per importance class (a)
// and the cumulative storage occupied by each class (b). Importance class i
// contains every macroblock whose importance is at most 2^i.
type Fig10Result struct {
	Rates   []float64
	Classes []int
	// Loss[ci][rate] is the mean quality change (dB) when every bit of
	// class Classes[ci] (cumulative) suffers the given error rate.
	Loss [][]float64
	// StorageFrac[ci] is the cumulative fraction of payload bits the class
	// occupies (Figure 10b).
	StorageFrac []float64
}

// Figure10 reproduces the cumulative importance-class experiment that drives
// the §7.2 error correction assignment. suite is EncodeSuite(ctx, cfg).
func Figure10(ctx context.Context, cfg Config, suite []*EncodedVideo) (*Fig10Result, error) {
	// Determine the classes present across the suite.
	maxClass := 0
	for _, ev := range suite {
		if c := core.Class(ev.Analysis.MaxImportance()); c > maxClass {
			maxClass = c
		}
	}
	var classes []int
	for c := 1; c <= maxClass; c++ {
		classes = append(classes, c)
	}
	rates := DefaultErrorRates
	res := &Fig10Result{
		Rates:       rates,
		Classes:     classes,
		Loss:        make([][]float64, len(classes)),
		StorageFrac: make([]float64, len(classes)),
	}
	for ci := range res.Loss {
		res.Loss[ci] = make([]float64, len(rates))
	}
	for _, ev := range suite {
		sorted := sortedByImportance(ev)
		var totalBits int64
		for _, m := range sorted {
			totalBits += m.BitLen
		}
		for ci, cls := range classes {
			var members []core.MBBits
			var bits int64
			for _, m := range sorted {
				if core.Class(m.Importance) <= cls {
					members = append(members, m)
					bits += m.BitLen
				}
			}
			res.StorageFrac[ci] += float64(bits) / float64(totalBits)
			if len(members) == 0 {
				continue
			}
			region := newBitRegion(members)
			for ri, p := range rates {
				mean, err := measureRegionLoss(ctx, ev, region, p, cfg.Runs, cfg.Seed+int64(ci*10007+ri))
				if err != nil {
					return nil, err
				}
				res.Loss[ci][ri] += mean
			}
		}
	}
	n := float64(len(suite))
	for ci := range res.Loss {
		res.StorageFrac[ci] /= n
		for ri := range res.Loss[ci] {
			res.Loss[ci][ri] /= n
		}
	}
	return res, nil
}

// LossAt interpolates the loss of a cumulative class at an arbitrary error
// rate (log-linear between measured points), for the assignment algorithm.
func (r *Fig10Result) LossAt(classIdx int, p float64) float64 {
	rates, loss := r.Rates, r.Loss[classIdx]
	if p <= rates[0] {
		// Below the measured range the loss scales linearly with p (flip
		// count is proportional to p in the forced-flip regime).
		return loss[0] * p / rates[0]
	}
	for i := 1; i < len(rates); i++ {
		if p <= rates[i] {
			// Log-linear interpolation.
			f := (math.Log10(p) - math.Log10(rates[i-1])) / (math.Log10(rates[i]) - math.Log10(rates[i-1]))
			return loss[i-1] + f*(loss[i]-loss[i-1])
		}
	}
	return loss[len(loss)-1]
}

// String renders both panels.
func (r *Fig10Result) String() string {
	header := []string{"class"}
	for _, p := range r.Rates {
		header = append(header, fmt.Sprintf("%.0e", p))
	}
	header = append(header, "storage")
	var rows [][]string
	for ci, cls := range r.Classes {
		row := []string{fmt.Sprintf("%d", cls)}
		for _, v := range r.Loss[ci] {
			row = append(row, fmt.Sprintf("%+.3f", v))
		}
		row = append(row, fmt.Sprintf("%.1f%%", r.StorageFrac[ci]*100))
		rows = append(rows, row)
	}
	return "Figure 10: cumulative quality change (dB) per importance class vs error rate\n" +
		renderTable(header, rows)
}
