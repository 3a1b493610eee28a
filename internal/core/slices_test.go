package core

import (
	"testing"

	"videoapp/internal/codec"
)

func slicedVideo(t *testing.T, slices int) *codec.Video {
	t.Helper()
	p := smallParams()
	p.SlicesPerFrame = slices
	return encodeTestVideo(t, "parkrun_like", 96, 64, 8, p)
}

func TestMonotonePerSlice(t *testing.T) {
	v := slicedVideo(t, 2)
	an := analyze(t, v, DefaultOptions())
	if err := an.CheckMonotone(); err != nil {
		t.Fatal(err)
	}
}

func TestSliceResetsCodingChain(t *testing.T) {
	// The first MB of slice 2 must not inherit the coding-chain importance
	// of slice 1's MBs: its total importance stays close to its
	// compensation importance plus its own chain.
	v := slicedVideo(t, 2)
	an := analyze(t, v, DefaultOptions())
	for f, ef := range v.Frames {
		if len(ef.SliceMBStart) < 2 {
			t.Fatal("expected 2 slices")
		}
		s1 := ef.SliceMBStart[1]
		// The last MB of slice 1 is a chain leaf: its importance must be
		// exactly its compensation importance.
		leaf := s1 - 1
		if an.Importance[f][leaf] != an.CompImportance[f][leaf] {
			t.Fatalf("frame %d: slice-1 tail MB %d carries chain weight %f > comp %f",
				f, leaf, an.Importance[f][leaf], an.CompImportance[f][leaf])
		}
	}
}

func TestSlicedPartitionPivotsPerSlice(t *testing.T) {
	v := slicedVideo(t, 2)
	an := analyze(t, v, DefaultOptions())
	parts := an.Partition(PaperAssignment())
	for f, fp := range parts {
		// Segments must still exactly cover the payload.
		var pos int64
		for _, s := range fp.Segments(v.Frames[f].PayloadBits()) {
			if s.Start != pos {
				t.Fatalf("frame %d: gap at %d", f, s.Start)
			}
			pos = s.Start + s.Bits
		}
		if pos != v.Frames[f].PayloadBits() {
			t.Fatalf("frame %d: cover %d of %d", f, pos, v.Frames[f].PayloadBits())
		}
	}
}

func TestSlicedSplitMergeRoundTrip(t *testing.T) {
	v := slicedVideo(t, 3)
	an := analyze(t, v, DefaultOptions())
	ss, err := SplitStreams(v, an.Partition(PaperAssignment()))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := ss.Merge(v)
	if err != nil {
		t.Fatal(err)
	}
	for f := range v.Frames {
		a, b := v.Frames[f].Payload, merged.Frames[f].Payload
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d differs", f)
			}
		}
	}
}

func TestSlicesIncreaseApproximableShare(t *testing.T) {
	// §8's promise: limiting coding propagation increases the share of
	// low-importance bits.
	v1 := slicedVideo(t, 1)
	v4 := slicedVideo(t, 4)
	share := func(v *codec.Video) float64 {
		an := analyze(t, v, DefaultOptions())
		var low, total int64
		for _, m := range an.MBBitRanges() {
			total += m.BitLen
			if Class(m.Importance) <= 6 {
				low += m.BitLen
			}
		}
		return float64(low) / float64(total)
	}
	if s4, s1 := share(v4), share(v1); s4 <= s1 {
		t.Fatalf("4 slices share %.3f <= 1 slice share %.3f", s4, s1)
	}
}
