package videoapp

// Integration tests of the container and of the damage a stored video can
// take, across module boundaries.

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/core"
)

// loaded is the main clip's video after a trip through the container.
func loaded(t *testing.T) *Video {
	t.Helper()
	v, err := Unmarshal(Marshal(mainOf(t).res.Video))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestContainerThroughFacade(t *testing.T) {
	a, err := DecodeContext(context.Background(), mainOf(t).res.Video, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeContext(context.Background(), loaded(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSequence(a, b) {
		t.Fatal("container decode differs")
	}
}

func TestDamagedStoreStillWithinGOP(t *testing.T) {
	// Corruption from approximate storage must never leak across an
	// I-frame boundary, whatever the assignment.
	e := mainOf(t)
	clean, err := DecodeContext(context.Background(), e.res.Video, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := e.res.Video.Clone()
	// Hammer the first GOP's frames.
	gop := e.p.GOPSize
	for fi := 0; fi < gop; fi++ {
		for k := int64(0); k < 5; k++ {
			bitio.FlipBit(c.Frames[fi].Payload, k*17)
		}
	}
	corrupt, err := DecodeContext(context.Background(), c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for d := gop; d < len(clean.Frames); d++ {
		if !bytes.Equal(clean.Frames[d].Y, corrupt.Frames[d].Y) {
			t.Fatalf("damage leaked into display frame %d", d)
		}
	}
}

func TestAnalyzeAfterContainerRoundTrip(t *testing.T) {
	// The full "works on any encoded video" path: encode, persist, load,
	// reanalyze by decoding, and verify the importance analysis matches the
	// encoder-side analysis closely enough to produce the same partitions.
	v := loaded(t)
	if err := Reanalyze(v); err != nil {
		t.Fatal(err)
	}
	anA := mainOf(t).res.Analysis
	anB, err := AnalyzeContext(context.Background(), v, 1)
	if err != nil {
		t.Fatal(err)
	}
	for f := range anA.Importance {
		for m := range anA.Importance[f] {
			a, b := anA.Importance[f][m], anB.Importance[f][m]
			if d := a - b; d > 1e-6 || d < -1e-6 {
				t.Fatalf("frame %d MB %d: importance %f vs %f", f, m, a, b)
			}
		}
	}
	if err := anB.CheckMonotone(); err != nil {
		t.Fatal(err)
	}
	partsA := anA.Partition(PaperAssignment())
	partsB := anB.Partition(PaperAssignment())
	for f := range partsA {
		if !slices.EqualFunc(partsA[f].Pivots, partsB[f].Pivots, func(a, b core.Pivot) bool { return a.Scheme.Name == b.Scheme.Name }) {
			t.Fatalf("frame %d: pivot schemes differ", f)
		}
	}
}
