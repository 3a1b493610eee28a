package codec

import (
	"bytes"
	"context"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/y4m"
)

// Tests of DecodeInto: the decode differential's route (checkDecodeInto,
// which holds it to the reference decoder over a buffer of garbage); a slot
// no frame claims is blank, and output frames or display indices that do
// not fit the video are errors before anything is decoded.

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

// TestDecodeIntoMatchesReference: DecodeInto over a garbage-filled buffer,
// every golden stream.
func TestDecodeIntoMatchesReference(t *testing.T) {
	eachVariant(t, func(*decodeVariant) bool { return true }, func(t *testing.T, what string, dv *decodeVariant) {
		checkDecodeInto(t, what, dv.v, dv.reference(t))
	})
}

// TestDecodeIntoUnclaimedSlotIsZero: the display slot no frame claims comes
// out as a blank picture, however dirty its buffer was.
func TestDecodeIntoUnclaimedSlotIsZero(t *testing.T) {
	var v *Video
	for _, dv := range goldenCases(t)[0].variants {
		if dv.name == "display_slot_claimed_twice" {
			v = dv.v
		}
	}
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
