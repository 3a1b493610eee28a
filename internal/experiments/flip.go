package experiments

import (
	"context"
	"math/rand"
	"sort"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/sim"
)

// bitRegion is a set of macroblock bit ranges treated as one flat bit space
// for error injection (the paper's bins and importance classes).
type bitRegion struct {
	ranges []core.MBBits
	// cum[i] is the flat offset where ranges[i] begins; cum[len] == total.
	cum   []int64
	total int64
}

func newBitRegion(ranges []core.MBBits) *bitRegion {
	r := &bitRegion{ranges: ranges, cum: make([]int64, len(ranges)+1)}
	for i, m := range ranges {
		r.cum[i] = r.total
		r.total += m.BitLen
	}
	r.cum[len(ranges)] = r.total
	return r
}

// locate maps a flat offset into (coded frame, payload bit position).
func (r *bitRegion) locate(off int64) (frameIdx int, bitPos int64) {
	if len(r.ranges) == 0 {
		return 0, 0
	}
	i := sort.Search(len(r.ranges), func(i int) bool { return r.cum[i+1] > off })
	if i >= len(r.ranges) {
		last := r.ranges[len(r.ranges)-1]
		return last.Frame, last.BitStart + last.BitLen - 1
	}
	m := r.ranges[i]
	return m.Frame, m.BitStart + (off - r.cum[i])
}

// inject flips bits of the region at rate p in a clone of v, returning the
// clone, the damaged frames by coded index and the §6.4 scale factor for
// the measured loss.
func (r *bitRegion) inject(v *codec.Video, rng *rand.Rand, p float64) (damaged *codec.Video, dirty []bool, scale float64) {
	c := v.ClonePooled()
	dirty = make([]bool, len(v.Frames))
	scale = 1
	if r.total == 0 || p <= 0 {
		return c, dirty, scale
	}
	flip := func(off int64) {
		fi, pos := r.locate(off)
		bitio.FlipBit(c.Frames[fi].Payload, pos)
		dirty[fi] = true
	}
	if sim.UseForcedFlip(r.total, p) {
		ff := sim.ForceOneFlip(rng, r.total, p)
		flip(ff.Position)
		scale = ff.Scale
	} else {
		sim.VisitErrorPositions(rng, r.total, p, flip)
	}
	return c, dirty, scale
}

// measureRegionLoss runs the Monte-Carlo §6.4 methodology: inject errors in
// the region at rate p over the given runs and return the mean quality
// change in dB (negative = loss), with forced-flip scaling at low rates.
func measureRegionLoss(ctx context.Context, ev *EncodedVideo, region *bitRegion, p float64, runs int, seed int64) (float64, error) {
	var mean float64
	for run := 0; run < runs; run++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(seed + int64(run)*7919))
		damaged, dirty, scale := region.inject(ev.Video, rng, p)
		psnr, err := damagedPSNR(ev, damaged, dirty)
		damaged.Release()
		if err != nil {
			return 0, err
		}
		mean += (psnr - ev.CleanPSNR) * scale
	}
	return mean / float64(runs), nil
}

// sortedByImportance returns the MB records of ev ascending by importance.
func sortedByImportance(ev *EncodedVideo) []core.MBBits {
	ranges := ev.Analysis.MBBitRanges()
	sort.SliceStable(ranges, func(i, j int) bool {
		return ranges[i].Importance < ranges[j].Importance
	})
	return ranges
}

// equalStorageBins splits importance-sorted MB records into n bins of equal
// storage (§7.1).
func equalStorageBins(sorted []core.MBBits, n int) [][]core.MBBits {
	var total int64
	for _, m := range sorted {
		total += m.BitLen
	}
	bins := make([][]core.MBBits, n)
	if total == 0 {
		return bins
	}
	// Each record goes to the bin containing its cumulative midpoint, which
	// keeps bins storage-balanced and guarantees the last bin is populated
	// even when single macroblocks exceed a bin's nominal share.
	var cum int64
	for _, m := range sorted {
		mid := cum + m.BitLen/2
		bin := int(mid * int64(n) / total)
		if bin >= n {
			bin = n - 1
		}
		bins[bin] = append(bins[bin], m)
		cum += m.BitLen
	}
	return bins
}
