package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"videoapp/internal/bch"
	"videoapp/internal/codec"
)

// syntheticVideo fabricates a Video with arbitrary (but structurally valid)
// dependency records, so analysis invariants can be property-tested far
// beyond what real encodes produce.
func syntheticVideo(rng *rand.Rand, nFrames, mbCols, mbRows int) *codec.Video {
	v := &codec.Video{W: mbCols * 16, H: mbRows * 16, FPS: 30}
	for f := 0; f < nFrames; f++ {
		ef := &codec.EncodedFrame{
			Type: codec.FrameP, CodedIdx: f, DisplayIdx: f,
			RefFwd: f - 1, RefBwd: -1,
		}
		if f == 0 {
			ef.Type = codec.FrameI
			ef.RefFwd = -1
		}
		var bit int64
		for m := 0; m < mbCols*mbRows; m++ {
			mb := codec.MBRecord{
				MB:       int32(m),
				BitStart: bit,
				BitLen:   int32(8 + rng.Intn(64)),
				DepOff:   int32(len(ef.Deps)),
			}
			bit += int64(mb.BitLen)
			// Random compensation deps on the previous frame; pixel counts
			// sum to at most 256.
			if f > 0 {
				left := 256
				for left > 0 && rng.Intn(3) > 0 {
					px := 1 + rng.Intn(left)
					ef.Deps = append(ef.Deps, codec.CompDep{
						SrcFrame: int32(f - 1),
						SrcMB:    int32(rng.Intn(mbCols * mbRows)),
						Pixels:   uint16(px),
					})
					mb.DepN++
					left -= px
				}
			}
			ef.MBs = append(ef.MBs, mb)
		}
		ef.Payload = make([]byte, (bit+7)/8)
		v.Frames = append(v.Frames, ef)
	}
	return v
}

// quickCheck checks prop over count synthetic videos, each drawn from its
// own seed.
func quickCheck(t *testing.T, count int, prop func(rng *rand.Rand) error) {
	t.Helper()
	var failure error
	check := func(seed int64) bool {
		failure = prop(rand.New(rand.NewSource(seed)))
		return failure == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err, failure)
	}
}

// TestImportanceConservationProperty: for any dependency structure every
// importance is at least 1 — each node contributes at least itself.
func TestImportanceConservationProperty(t *testing.T) {
	quickCheck(t, 50, func(rng *rand.Rand) error {
		return atLeastOne(analyze(t, syntheticVideo(rng, 2+rng.Intn(4), 2+rng.Intn(3), 2+rng.Intn(3)), DefaultOptions()))
	})
}

// TestMonotonePropertyOnSyntheticGraphs: monotone scan-order importance holds
// for any compensation structure, because the coding chain dominates within
// a frame.
func TestMonotonePropertyOnSyntheticGraphs(t *testing.T) {
	quickCheck(t, 100, func(rng *rand.Rand) error {
		return analyze(t, syntheticVideo(rng, 3, 3, 3), DefaultOptions()).CheckMonotone()
	})
}

// TestCompensationImportanceBoundedByArea: with incoming-edge weights
// normalized to 1, a node's compensation importance cannot exceed the
// video's macroblock count.
func TestCompensationImportanceBoundedByArea(t *testing.T) {
	quickCheck(t, 50, func(rng *rand.Rand) error {
		nf, c, r := 2+rng.Intn(3), 2+rng.Intn(3), 2+rng.Intn(3)
		an := analyze(t, syntheticVideo(rng, nf, c, r), DefaultOptions())
		for f, row := range an.CompImportance {
			for m, imp := range row {
				if imp > float64(nf*c*r)+1e-6 {
					return fmt.Errorf("frame %d MB %d: compensation importance %f > %d macroblocks", f, m, imp, nf*c*r)
				}
			}
		}
		return nil
	})
}

// TestPartitionSegmentsConservationProperty: for any assignment thresholds,
// segments exactly tile every payload.
func TestPartitionSegmentsConservationProperty(t *testing.T) {
	quickCheck(t, 50, func(rng *rand.Rand) error {
		v := syntheticVideo(rng, 3, 3, 2)
		a, b := rng.Intn(20), rng.Intn(20)
		ca := ClassAssignment{
			Bounds: []ClassBound{
				{MaxClass: min(a, b), Scheme: bch.SchemeNone},
				{MaxClass: max(a, b), Scheme: bch.SchemeBCH6},
			},
			Header: bch.SchemeBCH16,
		}
		return tiles(v, analyze(t, v, DefaultOptions()).Partition(ca))
	})
}

// TestSplitMergeProperty: split and merge are the identity for any partition
// Partition produces.
func TestSplitMergeProperty(t *testing.T) {
	quickCheck(t, 30, func(rng *rand.Rand) error {
		v := syntheticVideo(rng, 3, 2, 2)
		for _, ef := range v.Frames {
			rng.Read(ef.Payload)
		}
		return splitMerge(v, analyze(t, v, DefaultOptions()).Partition(PaperAssignment()), nil)
	})
}
