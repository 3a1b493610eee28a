package codec

import (
	"bytes"
	"context"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/y4m"
)

// Tests of the decode route, DecodeInto and DecodeContext over it: laid out
// as the views of a y4m stream, over a buffer holding anything, DecodeInto
// must leave the bytes of the reference decoder's pictures in display order,
// whatever the stream; DecodeContext followed by y4m.Write must too.

// intoVariants are the streams of one encoded design point DecodeInto is held
// to: the golden manifest's clean, bit-flipped and truncated ones, and header
// tables no encoder writes — slices out of raster order (the decoder must
// clear what it never reaches), a frame moved onto another's display slot
// (the slot it left is unclaimed, and a later frame still predicts from the
// one it covers).
func intoVariants(gc goldenCase) map[string]*Video {
	out := map[string]*Video{"clean": gc.clean, "flips_hi": gc.flipsHi, "truncated": gc.truncated}
	unraster := gc.flipsLo.Clone()
	for _, f := range unraster.Frames[1:] {
		n := unraster.MBCols() * unraster.MBRows()
		f.SliceMBStart = []int{n / 3, n / 2, n / 4}
		f.SliceByteStart = []int{0, len(f.Payload) / 3, len(f.Payload) / 2}
	}
	out["slices_out_of_raster"] = unraster
	// Coded frame 1 (the first P or B) takes the display slot of coded frame
	// 0, the I frame everything after predicts from.
	moved := gc.clean.Clone()
	moved.Frames[1].DisplayIdx = moved.Frames[0].DisplayIdx
	out["display_slot_claimed_twice"] = moved
	return out
}

// wantStream is the reference: refDecodeRecs's pictures written as a y4m
// stream in display order, a slot two coded frames claim holding the later
// one's and a slot none claims blank.
func wantStream(t *testing.T, v *Video) []byte {
	t.Helper()
	recs, err := refDecodeRecs(v)
	if err != nil {
		t.Fatal(err)
	}
	seq := &frame.Sequence{FPS: v.FPS, Frames: make([]*frame.Frame, len(v.Frames))}
	for i, ef := range v.Frames {
		seq.Frames[ef.DisplayIdx] = recs[i]
	}
	for d, f := range seq.Frames {
		if f == nil {
			seq.Frames[d] = frame.MustNew(v.W, v.H)
		}
	}
	return writeY4M(t, seq)
}

func writeY4M(t *testing.T, seq *frame.Sequence) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := y4m.Write(&buf, seq); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeIntoStream decodes v into the views of a y4m stream over a buffer
// pre-filled with garbage and returns the buffer.
func decodeIntoStream(t *testing.T, v *Video, workers int, garbage byte) ([]byte, []*frame.Frame) {
	t.Helper()
	l := y4m.Layout{W: v.W, H: v.H, FPS: v.FPS, Frames: len(v.Frames)}
	n, err := l.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{garbage}, n)
	views, err := l.Views(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(context.Background(), v, views, workers); err != nil {
		t.Fatal(err)
	}
	return buf, views
}

// TestDecodeIntoMatchesReference: over every design point of the golden
// manifest and each of its variants, DecodeInto into a buffer full of garbage
// (0xa5, never a blank picture's sample) at one, two and four workers, and
// DecodeContext + y4m.Write, leave the reference decoder's stream.
func TestDecodeIntoMatchesReference(t *testing.T) {
	for _, gc := range goldenCases(t) {
		for name, v := range intoVariants(gc) {
			want := wantStream(t, v)
			for _, workers := range []int{1, 2, 4} {
				if got, _ := decodeIntoStream(t, v, workers, 0xa5); !bytes.Equal(got, want) {
					t.Fatalf("%s %s, %d workers: DecodeInto differs from the reference decoder", gc.key, name, workers)
				}
			}
			seq, err := DecodeContext(context.Background(), v, DecodeOptions{}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(writeY4M(t, seq), want) {
				t.Fatalf("%s %s: DecodeContext differs from the reference decoder", gc.key, name)
			}
		}
	}
}

// TestDecodeIntoUnclaimedSlotIsZero: the display slot no frame claims comes
// out as a blank picture, however dirty its buffer was.
func TestDecodeIntoUnclaimedSlotIsZero(t *testing.T) {
	v := intoVariants(goldenCases(t)[0])["display_slot_claimed_twice"]
	claimed := make([]bool, len(v.Frames))
	for _, f := range v.Frames {
		claimed[f.DisplayIdx] = true
	}
	_, views := decodeIntoStream(t, v, 1, 0xff)
	unclaimed := 0
	for d, f := range views {
		if claimed[d] {
			continue
		}
		unclaimed++
		for _, p := range [][]uint8{f.Y, f.Cb, f.Cr} {
			if !bytes.Equal(p, make([]uint8, len(p))) {
				t.Fatalf("unclaimed display slot %d is not blank", d)
			}
		}
	}
	if unclaimed == 0 {
		t.Fatal("fixture: every display slot is claimed")
	}
}

// TestDecodeIntoRejects: output frames that do not fit the video, and a
// display index outside the video, are errors before anything is decoded —
// on DecodeContext's route too.
func TestDecodeIntoRejects(t *testing.T) {
	v := goldenCases(t)[0].clean
	fits := func() []*frame.Frame {
		out := make([]*frame.Frame, len(v.Frames))
		for i := range out {
			out[i] = frame.MustNew(v.W, v.H)
		}
		return out
	}
	short := fits()[1:]
	wrong := fits()
	wrong[2] = frame.MustNew(v.W+16, v.H)
	missing := fits()
	missing[0] = nil
	for name, out := range map[string][]*frame.Frame{"short": short, "wrong size": wrong, "nil frame": missing} {
		if err := DecodeInto(context.Background(), v, out, 1); err == nil {
			t.Fatalf("%s: DecodeInto succeeded", name)
		}
	}
	bad := v.Clone()
	bad.Frames[3].DisplayIdx = len(bad.Frames)
	m := obs.NewMetrics()
	ctx := obs.With(context.Background(), m)
	if err := DecodeInto(ctx, bad, fits(), 1); err == nil {
		t.Fatal("a display index past the video: DecodeInto succeeded")
	}
	if _, err := DecodeContext(ctx, bad, DecodeOptions{}, 1); err == nil {
		t.Fatal("a display index past the video: DecodeContext succeeded")
	}
	if n := m.Snapshot().CounterTotal(obs.CtrDecodeFrames); n != 0 {
		t.Fatalf("a display index past the video: %d frames decoded before the error", n)
	}
}
