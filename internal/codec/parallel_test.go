package codec

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"videoapp/internal/frame"
	"videoapp/internal/obs"
)

func TestEncodeParallelBitExact(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 25)
	p := testParams()
	p.GOPSize = 8
	serial, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EncodeParallelContext(context.Background(), seq, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel.Frames) != len(serial.Frames) {
		t.Fatalf("frame count %d vs %d", len(parallel.Frames), len(serial.Frames))
	}
	for i := range serial.Frames {
		a, b := serial.Frames[i], parallel.Frames[i]
		if a.Type != b.Type || a.CodedIdx != b.CodedIdx || a.DisplayIdx != b.DisplayIdx ||
			a.RefFwd != b.RefFwd || a.RefBwd != b.RefBwd {
			t.Fatalf("frame %d header mismatch: %+v vs %+v", i, a.Type, b.Type)
		}
		if !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("frame %d payload differs", i)
		}
		if len(a.MBs) != len(b.MBs) {
			t.Fatalf("frame %d MB records", i)
		}
		for m := range a.MBs {
			if a.MBs[m].BitStart != b.MBs[m].BitStart || len(a.MBs[m].Deps) != len(b.MBs[m].Deps) {
				t.Fatalf("frame %d MB %d records differ", i, m)
			}
			for d := range a.MBs[m].Deps {
				if a.MBs[m].Deps[d] != b.MBs[m].Deps[d] {
					t.Fatalf("frame %d MB %d dep %d differs", i, m, d)
				}
			}
		}
	}
	// Decodes identically too.
	db, err := DecodeContext(context.Background(), parallel, DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameSequences(t, "decoded", refDecode(t, serial), db)
}

// TestEncodeParallelOpenGOPBitExact: B frames reach across GOP boundaries,
// so an open-GOP video is one unit of work, encoded whole at any worker
// count, and its observer sees the same events a closed-GOP encode
// publishes.
func TestEncodeParallelOpenGOPBitExact(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 14)
	p := testParams()
	p.BFrames = 2
	p.GOPSize = 6
	want, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		m := obs.NewMetrics()
		got, err := EncodeParallelContext(obs.With(context.Background(), m), seq, p, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(Marshal(got), Marshal(want)) {
			t.Fatalf("workers=%d: open-GOP encode differs from encode", workers)
		}
		snap := m.Snapshot()
		if n := snap.CounterTotal(obs.CtrEncodeFrames); n != int64(len(seq.Frames)) {
			t.Fatalf("workers=%d: %d frames counted, want %d", workers, n, len(seq.Frames))
		}
		if len(snap.Stages) != 1 || snap.Stages[0].Stage != obs.StageEncode || snap.Stages[0].Frames != int64(len(seq.Frames)) {
			t.Fatalf("workers=%d: stages %+v, want one encode span over %d frames", workers, snap.Stages, len(seq.Frames))
		}
	}
}

func TestEncodeParallelPartialFinalGOP(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 10) // 10 frames, GOP 8 -> 8+2
	p := testParams()
	p.GOPSize = 8
	v, err := EncodeParallelContext(context.Background(), seq, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Frames) != 10 {
		t.Fatalf("%d frames", len(v.Frames))
	}
	if v.Frames[8].Type != FrameI {
		t.Fatal("second GOP must start with I")
	}
}

// sameSequences fails the test unless the two sequences match pixel-exactly.
func sameSequences(t *testing.T, label string, a, b *frame.Sequence) {
	t.Helper()
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("%s: frame count %d vs %d", label, len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if !bytes.Equal(a.Frames[i].Y, b.Frames[i].Y) ||
			!bytes.Equal(a.Frames[i].Cb, b.Frames[i].Cb) ||
			!bytes.Equal(a.Frames[i].Cr, b.Frames[i].Cr) {
			t.Fatalf("%s: decoded frame %d differs", label, i)
		}
	}
}

func TestDecodeParallelBitExact(t *testing.T) {
	seq := testSeq(t, "crew_like", 96, 64, 25)
	for _, tc := range []struct {
		name string
		mut  func(*Params)
	}{
		{"base", func(p *Params) {}},
		{"slices", func(p *Params) { p.SlicesPerFrame = 2 }},
		{"halfpel_deblock", func(p *Params) { p.HalfPel = true; p.Deblock = true }},
		{"cavlc", func(p *Params) { p.Entropy = CAVLC }},
		{"bframes", func(p *Params) { p.BFrames = 2; p.GOPSize = 6 }},
	} {
		p := testParams()
		p.GOPSize = 8
		tc.mut(&p)
		v, err := encode(seq, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		serial := refDecode(t, v)
		for _, workers := range []int{1, 2, 8} {
			parallel, err := DecodeContext(context.Background(), v, DecodeOptions{}, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			sameSequences(t, tc.name, serial, parallel)
		}
	}
}

func TestDecodeParallelCorruptedPayload(t *testing.T) {
	seq := testSeq(t, "sports_like", 96, 64, 24)
	p := testParams()
	p.GOPSize = 8
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a deterministic scatter of payload bits in every frame; the
	// decoder must interpret the garbage at every worker count exactly as
	// the serial reference decoder does (desync, propagation and all).
	for fi, ef := range v.Frames {
		for _, bit := range []int{7, 101, 1031} {
			if pos := bit + 13*fi; pos < len(ef.Payload)*8 {
				ef.Payload[pos/8] ^= 1 << (7 - uint(pos%8))
			}
		}
	}
	serial := refDecode(t, v)
	for _, workers := range []int{1, 2, 8} {
		parallel, err := DecodeContext(context.Background(), v, DecodeOptions{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameSequences(t, "corrupted", serial, parallel)
	}
}

func TestHeaderRefSpans(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 20)
	p := testParams()
	p.GOPSize = 8
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	spans := headerRefSpans(v)
	want := [][2]int{{0, 8}, {8, 16}, {16, 20}}
	if len(spans) != len(want) {
		t.Fatalf("spans %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("spans %v, want %v", spans, want)
		}
	}
	// A forward reference across the first GOP boundary must keep frames 3
	// and 9 in one span (no cut may separate a frame from its forward ref,
	// which has to be observed as "not yet decoded", exactly as in serial
	// decode). The frames before the dangling ref split off; the 8..16 GOP
	// merges in.
	v.Frames[3].RefFwd = 9
	spans = headerRefSpans(v)
	want = [][2]int{{0, 3}, {3, 16}, {16, 20}}
	if len(spans) != len(want) {
		t.Fatalf("forward ref not honoured: %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("forward ref not honoured: %v, want %v", spans, want)
		}
	}
	serial := refDecode(t, v)
	parallel, err := DecodeContext(context.Background(), v, DecodeOptions{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameSequences(t, "forward-ref", serial, parallel)
	// Out-of-range refs never resolve to a frame and must not affect
	// spanning: restoring frame 3 and pointing an unused backward ref past
	// the end of the video must yield the original GOP spans.
	v.Frames[3].RefFwd = 2
	v.Frames[5].RefBwd = 1 << 20
	got := headerRefSpans(v)
	want = [][2]int{{0, 8}, {8, 16}, {16, 20}}
	for i := range want {
		if len(got) != len(want) || got[i] != want[i] {
			t.Fatalf("out-of-range ref affected spans: %v", got)
		}
	}
}

func TestDecodeContextCancelled(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 8)
	p := testParams()
	p.GOPSize = 4
	v, err := encode(seq, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecodeContext(ctx, v, DecodeOptions{}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

func TestEncodeParallelContextCancelled(t *testing.T) {
	seq := testSeq(t, "news_like", 64, 48, 8)
	p := testParams()
	p.GOPSize = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EncodeParallelContext(ctx, seq, p, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

func BenchmarkEncodeParallel(b *testing.B) {
	b.ReportAllocs()
	seq := testSeq(b, "crew_like", 176, 144, 24)
	p := testParams()
	p.GOPSize = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeParallelContext(context.Background(), seq, p, 0); err != nil {
			b.Fatal(err)
		}
	}
}
