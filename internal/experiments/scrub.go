package experiments

import (
	"context"
	"fmt"

	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/store"
)

// ScrubRow is one scrubbing interval of the retention sweep: the substrate's
// effective raw error rate grows with the interval (drift accumulates), and
// with it the residual rates behind every correction scheme.
type ScrubRow struct {
	Months    float64
	RBER      float64
	WorstLoss float64
	MeanPSNR  float64
	Flips     int
}

// ScrubResult is the scrubbing-interval sweep, an extension of the paper's
// fixed three-month setting (§6.2): how long can scrubbing be deferred
// before the variable-correction assignment's quality guarantee erodes?
type ScrubResult struct {
	Rows []ScrubRow
}

// ScrubSweep evaluates the variable-correction design across scrubbing
// intervals using the computed (not nominal) residual rates. suite is
// EncodeSuite(ctx, cfg).
func ScrubSweep(ctx context.Context, cfg Config, suite []*EncodedVideo, months []float64) (*ScrubResult, error) {
	if len(months) == 0 {
		months = []float64{1, 3, 6, 12, 24}
	}
	res := &ScrubResult{}
	for _, m := range months {
		sys, err := store.New(store.Config{
			Substrate:   mlc.Default(),
			Assignment:  core.PaperAssignment(),
			ScrubMonths: m,
		})
		if err != nil {
			return nil, err
		}
		row := ScrubRow{Months: m, RBER: sys.RBER()}
		var psnrSum float64
		for _, ev := range suite {
			parts := ev.Analysis.Partition(core.PaperAssignment())
			worst, flips, err := worstStoredLoss(ctx, sys, ev, parts, cfg.Runs, cfg.Seed, 31337)
			if err != nil {
				return nil, err
			}
			row.Flips += flips
			if worst > row.WorstLoss {
				row.WorstLoss = worst
			}
			psnrSum += ev.CleanPSNR - worst
		}
		row.MeanPSNR = psnrSum / float64(len(suite))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the sweep.
func (r *ScrubResult) String() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", row.Months),
			fmt.Sprintf("%.2e", row.RBER),
			fmt.Sprintf("%d", row.Flips),
			fmt.Sprintf("%.3f", row.WorstLoss),
			fmt.Sprintf("%.2f", row.MeanPSNR),
		})
	}
	return "Scrub-interval sweep (variable correction, computed residual rates)\n" +
		renderTable([]string{"Months", "RBER", "Flips", "WorstLoss(dB)", "PSNR(dB)"}, rows)
}
