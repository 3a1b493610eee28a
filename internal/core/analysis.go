// Package core implements VideoApp, the paper's primary contribution: a
// framework that takes an encoded video and orders all of its bits by the
// visual damage a flip would cause (§4).
//
// It builds the weighted macroblock dependency graph from the records the
// encoder captured — compensation (pixel-domain) edges from reference
// footprints and coding (metadata/entropy) edges from the scan-order
// propagation pattern — and computes per-macroblock importance with the
// two-phase backward traversal of §4.3. It then derives per-frame pivots
// (§4.4) that compactly describe each frame's error-correction layout, and
// splits the payload into per-reliability streams (§5.3).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"videoapp/internal/bch"
	"videoapp/internal/codec"
	"videoapp/internal/obs"
	"videoapp/internal/par"
)

// Sentinel errors for the analysis and partitioning layer. They are wrapped
// with context (frame numbers, counts) at every return site; match with
// errors.Is.
var (
	// ErrPartitionMismatch reports a partition list whose length does not
	// match the video's frame count.
	ErrPartitionMismatch = errors.New("partition count does not match frame count")
	// ErrNonMonotone reports a violation of the §4.4 invariant that
	// importance never increases in scan order within a slice.
	ErrNonMonotone = errors.New("importance is not monotone non-increasing in scan order")
)

// Options tunes the analysis.
type Options struct {
	// CodingWeight is the weight of coding (scan-order) dependency edges.
	// The paper uses 1.0 — importance counts damaged macroblocks — and
	// notes the weight can be tweaked to re-balance coding vs compensation
	// damage (§4.2).
	CodingWeight float64
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options { return Options{CodingWeight: 1.0} }

// Analysis is the per-macroblock importance map for a coded video.
type Analysis struct {
	Video *codec.Video
	// Importance[f][m] estimates the number of macroblocks damaged by a bit
	// flip in macroblock m of coded frame f (>= 1).
	Importance [][]float64
	// CompImportance[f][m] is the compensation-only importance after step 4
	// of the algorithm, kept for diagnostics and ablations.
	CompImportance [][]float64
	opts           Options
}

// depSpans partitions the coded order into maximal frame runs whose
// compensation dependencies stay inside the run, in either direction. For a
// closed-GOP video the runs are exactly the GOPs; arbitrary (re-analyzed or
// malformed) dependency structures degrade gracefully toward one serial
// span. Out-of-range source frames are skipped by the accumulation and are
// therefore ignored here too.
func depSpans(v *codec.Video) [][2]int {
	n := len(v.Frames)
	if n == 0 {
		return nil
	}
	lo := make([]int, n) // lowest in-range dep source of frame i
	hi := make([]int, n) // highest in-range dep source of frame i
	for i, ef := range v.Frames {
		lo[i], hi[i] = n, -1
		for _, d := range ef.Deps {
			src := int(d.SrcFrame)
			if src < 0 || src >= n {
				continue
			}
			lo[i] = min(lo[i], src)
			hi[i] = max(hi[i], src)
		}
	}
	sufMin := make([]int, n+1)
	sufMin[n] = n
	for i := n - 1; i >= 0; i-- {
		sufMin[i] = min(lo[i], sufMin[i+1])
	}
	var spans [][2]int
	start, preMax := 0, -1
	for c := 1; c < n; c++ {
		preMax = max(preMax, hi[c-1])
		if sufMin[c] >= c && preMax < c {
			spans = append(spans, [2]int{start, c})
			start = c
		}
	}
	return append(spans, [2]int{start, n})
}

// AnalyzeContext runs the VideoApp dependency analysis on an encoded video,
// with GOP-level fan-out of the backward pass (phase 1) and per-frame
// fan-out of the coding chain (phase 2), plus cooperative cancellation
// checked at frame boundaries; workers <= 0 selects GOMAXPROCS and
// workers = 1 is the serial sweep. Spans of the dependency DAG are mutually
// independent, so every floating-point accumulation happens in the same
// order at any worker count and the result is bit-identical.
func AnalyzeContext(ctx context.Context, v *codec.Video, opts Options, workers int) (*Analysis, error) {
	o := obs.From(ctx)
	defer obs.StartSpan(o, obs.StageAnalyze).End()
	nF := len(v.Frames)
	imp := make([][]float64, nF)
	for f, ef := range v.Frames {
		imp[f] = make([]float64, len(ef.MBs))
		for m := range imp[f] {
			imp[f][m] = 1 // every node starts as "one MB of damage"
		}
	}

	// Phase 1 (steps 1-4): compensation graph, backward accumulation.
	// Coded order is a topological order: every dependency points to an
	// earlier coded frame, or to an earlier MB of the same frame (intra
	// spatial references). Sweeping frames and MBs in reverse order
	// therefore visits every destination after all of its children, so its
	// importance is final when we push contributions to its sources.
	spans := depSpans(v)
	err := par.ForEachLabeled(ctx, len(spans), workers, obs.StageAnalyze, "span", func(si int) error {
		sp := spans[si]
		for f := sp[1] - 1; f >= sp[0]; f-- {
			if err := ctx.Err(); err != nil {
				return err
			}
			ef := v.Frames[f]
			for m := len(ef.MBs) - 1; m >= 0; m-- {
				deps := ef.MBDeps(m)
				total := 0
				for _, d := range deps {
					total += int(d.Pixels)
				}
				if total == 0 {
					continue
				}
				for _, d := range deps {
					w := float64(d.Pixels) / float64(total)
					src, srcIdx := int(d.SrcFrame), int(d.SrcMB)
					if src < 0 || src >= nF {
						continue
					}
					if srcIdx < 0 || srcIdx >= len(imp[src]) {
						continue
					}
					imp[src][srcIdx] += w * imp[f][m]
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2 (steps 5-8): coding graph — within each slice a weighted
	// chain following the scan order (Figure 2c); the chain weight is 1 in
	// the paper's damaged-area heuristic. With one slice per frame (the
	// paper's conservative setting) the chain spans the whole frame; with
	// slices enabled (§8) it resets at every slice boundary. Frames are
	// independent here, so the fan-out is per frame.
	comp := make([][]float64, nF)
	cw := opts.CodingWeight
	err = par.ForEachLabeled(ctx, nF, workers, obs.StageAnalyze, "", func(f int) error {
		comp[f] = append([]float64(nil), imp[f]...)
		row := imp[f]
		starts := sliceStartSet(v.Frames[f])
		for m := len(row) - 2; m >= 0; m-- {
			if starts[m+1] {
				continue // the chain does not cross into the next slice
			}
			row[m] += cw * row[m+1]
		}
		o.FrameDone(obs.StageAnalyze, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Analysis{Video: v, Importance: imp, CompImportance: comp, opts: opts}, nil
}

// sliceStartSet returns the set of macroblock indices that begin a slice.
func sliceStartSet(ef *codec.EncodedFrame) map[int]bool {
	set := map[int]bool{}
	for _, s := range ef.SliceMBStart {
		set[s] = true
	}
	return set
}

// MaxImportance returns the largest importance in the video.
func (a *Analysis) MaxImportance() float64 {
	max := 0.0
	for _, row := range a.Importance {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// Class returns the paper's logarithmic importance class of a value:
// class i contains all macroblocks whose importance is at most 2^i (§7.2).
func Class(importance float64) int {
	if importance <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(importance)))
}

// MBBits describes one macroblock's bits for binning experiments.
type MBBits struct {
	Frame      int
	MBIndex    int
	BitStart   int64
	BitLen     int64
	Importance float64
}

// MBBitRanges flattens the analysis into one record per macroblock, in
// coded order.
func (a *Analysis) MBBitRanges() []MBBits {
	var out []MBBits
	for f, ef := range a.Video.Frames {
		for m, mb := range ef.MBs {
			out = append(out, MBBits{
				Frame:      f,
				MBIndex:    m,
				BitStart:   mb.BitStart,
				BitLen:     int64(mb.BitLen),
				Importance: a.Importance[f][m],
			})
		}
	}
	return out
}

// CheckMonotone verifies the §4.4 observation that importance is strictly
// non-increasing in scan order within every slice, which is what makes the
// pivot encoding exact. It returns an error naming the first violation.
func (a *Analysis) CheckMonotone() error {
	for f, row := range a.Importance {
		starts := sliceStartSet(a.Video.Frames[f])
		for m := 1; m < len(row); m++ {
			if starts[m] {
				continue
			}
			if row[m] > row[m-1]+1e-9 {
				return fmt.Errorf("core: %w: frame %d: rises at MB %d (%.3f -> %.3f)", ErrNonMonotone, f, m, row[m-1], row[m])
			}
		}
	}
	return nil
}

// ClassAssignment maps importance classes to error-correction schemes.
type ClassAssignment struct {
	// Bounds is ordered by ascending MaxClass; a macroblock of class c gets
	// the scheme of the first bound with MaxClass >= c, or Header beyond.
	Bounds []ClassBound
	// Header is the scheme protecting frame headers and any macroblock
	// above every bound (precise storage).
	Header bch.Scheme
}

// ClassBound is one row of the assignment table.
type ClassBound struct {
	MaxClass int
	Scheme   bch.Scheme
}

// PaperAssignment returns Table 1 of the paper: importance classes 0-2 get
// no correction, 3-10 BCH-6, 11-13 BCH-7, 14-16 BCH-8, 17-20 BCH-9,
// 21-26 BCH-10, frame headers BCH-16.
func PaperAssignment() ClassAssignment {
	return ClassAssignment{
		Bounds: []ClassBound{
			{MaxClass: 2, Scheme: bch.SchemeNone},
			{MaxClass: 10, Scheme: bch.SchemeBCH6},
			{MaxClass: 13, Scheme: bch.SchemeBCH7},
			{MaxClass: 16, Scheme: bch.SchemeBCH8},
			{MaxClass: 20, Scheme: bch.SchemeBCH9},
			{MaxClass: 26, Scheme: bch.SchemeBCH10},
		},
		Header: bch.SchemeBCH16,
	}
}

// UniformAssignment protects everything with the header scheme — the
// baseline design of Figure 11.
func UniformAssignment() ClassAssignment {
	return ClassAssignment{Header: bch.SchemeBCH16}
}

// IdealAssignment models a perfect error correction scheme with no storage
// overhead and no errors — the "Ideal" curve of Figure 11.
func IdealAssignment() ClassAssignment {
	ideal := bch.Scheme{Name: "Ideal", T: 0, NominalRate: 0}
	return ClassAssignment{Header: ideal, Bounds: []ClassBound{{MaxClass: 1 << 30, Scheme: ideal}}}
}

// SchemeFor returns the scheme protecting a macroblock of the given
// importance.
func (ca ClassAssignment) SchemeFor(importance float64) bch.Scheme {
	c := Class(importance)
	for _, b := range ca.Bounds {
		if c <= b.MaxClass {
			return b.Scheme
		}
	}
	return ca.Header
}

// Pivot marks a scheme change within a frame payload: bits from Bit onward
// (until the next pivot) are protected by Scheme.
type Pivot struct {
	Bit    int64
	Scheme bch.Scheme
}

// FramePartition is the §4.4 reliability layout of one frame: a few pivots
// describing the correction level of every payload bit, stored precisely in
// the frame header.
type FramePartition struct {
	Frame  int
	Pivots []Pivot
}

// Segments expands the pivots into (scheme, start, length) runs covering
// payloadBits.
func (fp FramePartition) Segments(payloadBits int64) []Segment {
	out := make([]Segment, 0, len(fp.Pivots))
	fp.VisitSegments(payloadBits, func(s Segment) { out = append(out, s) })
	return out
}

// VisitSegments calls visit with each (scheme, start, length) run covering
// payloadBits, in order. It yields exactly the runs Segments returns without
// materializing the slice, so per-frame hot paths (error injection, footprint
// accounting) iterate the layout allocation-free.
func (fp FramePartition) VisitSegments(payloadBits int64, visit func(Segment)) {
	for i, p := range fp.Pivots {
		end := payloadBits
		if i+1 < len(fp.Pivots) {
			end = fp.Pivots[i+1].Bit
		}
		if end > p.Bit {
			visit(Segment{Scheme: p.Scheme, Start: p.Bit, Bits: end - p.Bit})
		}
	}
}

// Segment is a contiguous payload bit range under one scheme.
type Segment struct {
	Scheme bch.Scheme
	Start  int64
	Bits   int64
}

// Partition computes the per-frame pivots for an assignment. Because
// importance is non-increasing in scan order, each frame needs at most one
// pivot per scheme: the bit position where the layout steps down to a weaker
// scheme. The stronger schemes come first (high importance at the top-left).
func (a *Analysis) Partition(ca ClassAssignment) []FramePartition {
	parts := make([]FramePartition, len(a.Video.Frames))
	for f, ef := range a.Video.Frames {
		fp := FramePartition{Frame: f}
		starts := sliceStartSet(ef)
		var cur string
		mono := math.Inf(1)
		for m, mb := range ef.MBs {
			if starts[m] {
				// Each slice restarts the monotone descent; a pivot may
				// strengthen the scheme again at a slice boundary.
				mono = math.Inf(1)
			}
			// Guard the §4.4 monotonicity invariant against numerical jitter.
			impv := a.Importance[f][m]
			if impv > mono {
				impv = mono
			}
			mono = impv
			s := ca.SchemeFor(impv)
			if s.Name != cur {
				fp.Pivots = append(fp.Pivots, Pivot{Bit: mb.BitStart, Scheme: s})
				cur = s.Name
			}
		}
		if len(fp.Pivots) == 0 {
			fp.Pivots = []Pivot{{Bit: 0, Scheme: ca.Header}}
		}
		parts[f] = fp
	}
	return parts
}

// PivotOverheadBits estimates the §4.4 bookkeeping cost: a few bytes per
// pivot (bit offset + scheme id), stored precisely in the frame header.
func PivotOverheadBits(parts []FramePartition) int64 {
	var n int64
	for _, fp := range parts {
		n += int64(len(fp.Pivots)) * (32 + 4) // 32-bit offset + 4-bit scheme id
	}
	return n
}
