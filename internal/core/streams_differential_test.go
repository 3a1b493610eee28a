package core

import (
	"bytes"
	"math/rand"
	"testing"

	"videoapp/internal/bch"
	"videoapp/internal/bitio"
	"videoapp/internal/codec"
)

// sameStreamSet requires two stream sets to hold the same streams, bit for
// bit.
func sameStreamSet(t *testing.T, label string, got, want *StreamSet) {
	t.Helper()
	if len(got.Streams) != len(want.Streams) {
		t.Fatalf("%s: %d streams, oracle %d", label, len(got.Streams), len(want.Streams))
	}
	for name, w := range want.Streams {
		if g, ok := got.Streams[name]; !ok || !bytes.Equal(g, w) || got.Bits[name] != want.Bits[name] {
			t.Fatalf("%s: stream %q: %d bits %x, oracle %d bits %x", label, name, got.Bits[name], g, want.Bits[name], w)
		}
	}
}

// samePayloads requires two videos to carry identical payloads.
func samePayloads(t *testing.T, label string, got, want *codec.Video) {
	t.Helper()
	for f := range want.Frames {
		if !bytes.Equal(got.Frames[f].Payload, want.Frames[f].Payload) {
			t.Fatalf("%s: frame %d payload differs from the oracle's", label, f)
		}
	}
}

// splitMergeCase runs SplitStreams, Merge and MergeInto against the
// bit-at-a-time oracles on one (video, layout) pair, with the streams
// damaged in between so that the merge moves bits the split did not produce.
func splitMergeCase(t *testing.T, label string, v *codec.Video, parts []FramePartition, rng *rand.Rand) {
	t.Helper()
	got, gerr := SplitStreams(v, parts)
	want, werr := splitStreamsRef(v, parts)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: split error %v, oracle %v", label, gerr, werr)
	}
	if gerr != nil {
		return
	}
	sameStreamSet(t, label, got, want)
	for name, s := range got.Streams {
		for n := len(s) / 40; n > 0; n-- {
			bitio.FlipBit(s, rng.Int63n(int64(len(s))*8))
		}
		copy(want.Streams[name], s)
	}
	// Merge over a video whose payloads are not zero: every payload bit the
	// layout covers must be overwritten, every other bit must survive.
	base := v.Clone()
	for _, f := range base.Frames {
		rng.Read(f.Payload)
	}
	gm, gerr := got.Merge(base)
	wm, werr := mergeRef(want, base)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: merge error %v, oracle %v", label, gerr, werr)
	}
	if gerr != nil {
		return
	}
	samePayloads(t, label+" Merge", gm, wm)
	own := base.Clone()
	if err := got.MergeInto(own); err != nil {
		t.Fatalf("%s: MergeInto: %v", label, err)
	}
	samePayloads(t, label+" MergeInto", own, wm)
}

// TestSplitMergeMatchesReference is the stream layer's differential test:
// the paper's assignment, an all-None assignment (one stream takes every
// bit), one stream per frame slice, and layouts that do not fit the video —
// pivots past the payload, a first pivot past bit 0 — which the per-bit
// forms handled by reading zeros and skipping bits.
func TestSplitMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, c := range []clip{sportsClip, slicedClip(2)} {
		e := corpusOf(t, c)
		v := e.v
		an := e.an
		allNone := ClassAssignment{Header: bch.SchemeNone, Bounds: []ClassBound{{MaxClass: 1 << 30, Scheme: bch.SchemeNone}}}
		splitMergeCase(t, "paper", v, an.Partition(PaperAssignment()), rng)
		splitMergeCase(t, "all-none", v, an.Partition(allNone), rng)
		splitMergeCase(t, "uniform", v, an.Partition(UniformAssignment()), rng)

		// Hand-made layouts with arbitrary pivots, sorted as the pivot table
		// format requires but otherwise unrelated to the payload lengths.
		schemes := []bch.Scheme{bch.SchemeNone, bch.SchemeBCH6, bch.SchemeBCH9, bch.SchemeBCH16}
		for trial := 0; trial < 60; trial++ {
			parts := make([]FramePartition, len(v.Frames))
			for f, ef := range v.Frames {
				parts[f].Frame = f
				pos := int64(rng.Intn(20)) * int64(rng.Intn(2)) // often a gap before the first pivot
				for n := rng.Intn(6); n > 0; n-- {
					parts[f].Pivots = append(parts[f].Pivots, Pivot{Bit: pos, Scheme: schemes[rng.Intn(len(schemes))]})
					pos += rng.Int63n(ef.PayloadBits()/2 + 40)
				}
			}
			splitMergeCase(t, "random layout", v, parts, rng)
		}
		if _, err := SplitStreams(v, an.Partition(PaperAssignment())[1:]); err == nil {
			t.Fatal("a layout for the wrong frame count must be refused")
		}
	}
}
