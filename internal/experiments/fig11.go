package experiments

import (
	"context"
	"fmt"

	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/store"
)

// Fig11Point is one point of Figure 11: a storage design evaluated at one
// quality target.
type Fig11Point struct {
	Design        string
	CRF           int
	CellsPerPixel float64
	// PSNR is the suite-average PSNR of the stored-and-decoded videos
	// against the originals, using the paper's conservative convention of
	// charging each video its worst observed loss.
	PSNR float64
	// QualityLossDB is the worst-case loss vs the clean decode.
	QualityLossDB float64
	// ECCOverhead is the effective parity/payload ratio.
	ECCOverhead float64
	// DensityVsSLC is the density gain over reliable SLC storage.
	DensityVsSLC float64
}

// Fig11Result collects the design/quality sweep plus headline deltas.
type Fig11Result struct {
	Points []Fig11Point
	// OverheadReductionPct is the fraction of uniform-correction ECC
	// overhead the variable design eliminates at the base CRF.
	OverheadReductionPct float64
	// StorageSavingPct is the cell saving of variable vs uniform.
	StorageSavingPct float64
}

// Fig11Designs names the three storage designs of Figure 11.
var Fig11Designs = []string{"Uniform", "Variable", "Ideal"}

func designAssignment(name string, variable core.ClassAssignment) core.ClassAssignment {
	switch name {
	case "Uniform":
		return core.UniformAssignment()
	case "Ideal":
		return core.IdealAssignment()
	default:
		return variable
	}
}

// Figure11 reproduces the overall storage benefit evaluation: for each CRF
// quality target and each design, the density (cells per encoded pixel) and
// the resulting quality after one storage round trip. base is
// EncodeSuite(ctx, cfg) and serves the CRF equal to cfg.CRF; every other
// CRF's suite is encoded here, one at a time, from base's sequences.
func Figure11(ctx context.Context, cfg Config, base []*EncodedVideo, crfs []int, variable core.ClassAssignment) (*Fig11Result, error) {
	if len(crfs) == 0 {
		crfs = []int{16, 20, 24}
	}
	res := &Fig11Result{}
	substrate := mlc.Default()
	for _, crf := range crfs {
		suite := base
		if crf != cfg.CRF {
			c := cfg
			c.CRF = crf
			var err error
			if suite, err = reencodeSuite(ctx, c, base); err != nil {
				return nil, err
			}
		}
		for _, design := range Fig11Designs {
			assignment := designAssignment(design, variable)
			sys, err := store.New(store.Config{Substrate: substrate, Assignment: assignment})
			if err != nil {
				return nil, err
			}
			var cellsPP, psnr, worstLoss, overhead float64
			for _, ev := range suite {
				parts := ev.Analysis.Partition(assignment)
				st, err := sys.FootprintContext(ctx, ev.Video, parts, ev.Seq.PixelCount(), workers)
				if err != nil {
					return nil, err
				}
				cellsPP += st.CellsPerPixel
				overhead += st.ECCOverhead

				worst, _, err := worstStoredLoss(ctx, sys, ev, parts, cfg.Runs, cfg.Seed, 104729)
				if err != nil {
					return nil, err
				}
				psnr += ev.CleanPSNR - worst
				if worst > worstLoss {
					worstLoss = worst
				}
			}
			n := float64(len(suite))
			res.Points = append(res.Points, Fig11Point{
				Design:        design,
				CRF:           crf,
				CellsPerPixel: cellsPP / n,
				PSNR:          psnr / n,
				QualityLossDB: worstLoss,
				ECCOverhead:   overhead / n,
				DensityVsSLC:  substrate.DensityVsSLC(overhead / n),
			})
		}
	}
	res.computeHeadlines(crfs[len(crfs)-1])
	return res, nil
}

func (r *Fig11Result) computeHeadlines(baseCRF int) {
	var uni, varr *Fig11Point
	for i := range r.Points {
		p := &r.Points[i]
		if p.CRF != baseCRF {
			continue
		}
		switch p.Design {
		case "Uniform":
			uni = p
		case "Variable":
			varr = p
		}
	}
	if uni == nil || varr == nil {
		return
	}
	if uni.ECCOverhead > 0 {
		r.OverheadReductionPct = (1 - varr.ECCOverhead/uni.ECCOverhead) * 100
	}
	if uni.CellsPerPixel > 0 {
		r.StorageSavingPct = (1 - varr.CellsPerPixel/uni.CellsPerPixel) * 100
	}
}

// Point returns the entry for a design at a CRF, or nil.
func (r *Fig11Result) Point(design string, crf int) *Fig11Point {
	for i := range r.Points {
		if r.Points[i].Design == design && r.Points[i].CRF == crf {
			return &r.Points[i]
		}
	}
	return nil
}

// String renders the sweep.
func (r *Fig11Result) String() string {
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Design,
			fmt.Sprintf("%d", p.CRF),
			fmt.Sprintf("%.4f", p.CellsPerPixel),
			fmt.Sprintf("%.2f", p.PSNR),
			fmt.Sprintf("%.3f", p.QualityLossDB),
			fmt.Sprintf("%.1f%%", p.ECCOverhead*100),
			fmt.Sprintf("%.2fx", p.DensityVsSLC),
		})
	}
	return fmt.Sprintf("Figure 11: storage density vs quality (ECC overhead cut: %.0f%%, storage saving: %.1f%%)\n%s",
		r.OverheadReductionPct, r.StorageSavingPct,
		renderTable([]string{"Design", "CRF", "Cells/px", "PSNR", "WorstLoss", "ECC-OH", "vs SLC"}, rows))
}
