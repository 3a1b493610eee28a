package core

import (
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

func TestImportanceConservationProperty(t *testing.T) {
	// For any dependency structure: total importance >= number of MBs (each
	// node contributes at least itself), and every value >= 1.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := syntheticVideo(rng, 2+rng.Intn(4), 2+rng.Intn(3), 2+rng.Intn(3))
		an := analyze(t, v, DefaultOptions())
		var total float64
		n := 0
		for _, row := range an.Importance {
			for _, imp := range row {
				if imp < 1 {
					return false
				}
				total += imp
				n++
			}
		}
		return total >= float64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotonePropertyOnSyntheticGraphs(t *testing.T) {
	// Monotone scan-order importance must hold for ANY compensation
	// structure, because the coding chain dominates within a frame.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := syntheticVideo(rng, 3, 3, 3)
		an := analyze(t, v, DefaultOptions())
		return an.CheckMonotone() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCompensationImportanceBoundedByArea(t *testing.T) {
	// With incoming-edge weights normalized to 1, a node's compensation
	// importance cannot exceed the total macroblock count of the video.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nf, c, r := 2+rng.Intn(3), 2+rng.Intn(3), 2+rng.Intn(3)
		v := syntheticVideo(rng, nf, c, r)
		an := analyze(t, v, DefaultOptions())
		bound := float64(nf * c * r)
		for _, row := range an.CompImportance {
			for _, imp := range row {
				if imp > bound+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSegmentsConservationProperty(t *testing.T) {
	// For any assignment thresholds, segments exactly tile every payload.
	prop := func(seed int64, t1, t2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		v := syntheticVideo(rng, 3, 3, 2)
		an := analyze(t, v, DefaultOptions())
		a, b := int(t1%20), int(t2%20)
		if a > b {
			a, b = b, a
		}
		ca := ClassAssignment{
			Bounds: []ClassBound{
				{MaxClass: a, Scheme: bch.SchemeNone},
				{MaxClass: b, Scheme: bch.SchemeBCH6},
			},
			Header: bch.SchemeBCH16,
		}
		for f, fp := range an.Partition(ca) {
			var pos int64
			for _, s := range fp.Segments(v.Frames[f].PayloadBits()) {
				if s.Start != pos || s.Bits <= 0 {
					return false
				}
				pos += s.Bits
			}
			if pos != v.Frames[f].PayloadBits() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitMergeProperty(t *testing.T) {
	// Split+merge is the identity for any partition produced by Partition.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := syntheticVideo(rng, 3, 2, 2)
		for _, ef := range v.Frames {
			rng.Read(ef.Payload)
		}
		an := analyze(t, v, DefaultOptions())
		parts := an.Partition(PaperAssignment())
		ss, err := SplitStreams(v, parts)
		if err != nil {
			return false
		}
		merged, err := ss.Merge(v)
		if err != nil {
			return false
		}
		for f := range v.Frames {
			a, b := v.Frames[f].Payload, merged.Frames[f].Payload
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
