package codec

import (
	"context"
	"fmt"

	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/par"
)

// EncodeParallelContext is the encoder's entry point: it encodes GOPs
// concurrently and produces a video bit-exactly identical to encode.
// A closed-GOP structure (BFrames == 0) makes every GOP an independent unit
// of work — it starts with an I frame and references only frames within
// itself. An open-GOP video (BFrames > 0) is one unit, encoded whole.
// workers <= 0 selects GOMAXPROCS. Cancellation is cooperative: ctx is
// checked at unit boundaries, and a cancelled context aborts the remaining
// GOPs and returns ctx.Err(). An observer attached to ctx (obs.With)
// receives the encode stage span, per-GOP frame progress and per-frame-type
// counters, whatever the GOP structure; GOP workers run under pprof labels
// (stage=encode, gop=N) so CPU profiles attribute samples per GOP.
func EncodeParallelContext(ctx context.Context, seq *frame.Sequence, p Params, workers int) (*Video, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(seq.Frames) == 0 {
		return nil, fmt.Errorf("codec: empty sequence")
	}
	o := obs.From(ctx)
	defer obs.StartSpan(o, obs.StageEncode).End()
	// Chunk the display frames into independent units: GOPs, or the whole
	// sequence when B frames reach across GOP boundaries.
	unit := p.GOPSize
	if p.BFrames != 0 {
		unit = len(seq.Frames)
	}
	type chunk struct {
		start int // display index of the chunk's I frame
		end   int // exclusive
	}
	var chunks []chunk
	for s := 0; s < len(seq.Frames); s += unit {
		chunks = append(chunks, chunk{start: s, end: min(s+unit, len(seq.Frames))})
	}

	videos := make([]*Video, len(chunks))
	err := par.ForEachLabeled(ctx, len(chunks), workers, obs.StageEncode, "gop", func(ci int) error {
		ch := chunks[ci]
		sub := &frame.Sequence{Name: seq.Name, FPS: seq.FPS, Frames: seq.Frames[ch.start:ch.end]}
		var err error
		videos[ci], err = encode(sub, p)
		if err == nil {
			o.FrameDone(obs.StageEncode, ch.end-ch.start)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// Stitch: shift frame indices and dependency references by the chunk's
	// base position.
	out := &Video{Params: p, W: seq.W(), H: seq.H(), FPS: seq.FPS}
	base := 0
	for ci, v := range videos {
		v.ShiftIndices(base)
		for _, f := range v.Frames {
			o.Counter(obs.CtrEncodeFrames, f.Type.String(), 1)
			out.Frames = append(out.Frames, f)
		}
		base += chunks[ci].end - chunks[ci].start
	}
	return out, nil
}

// headerRefSpans partitions the coded order into maximal runs whose frames
// reference (via their precisely-stored header refs) no frame outside the
// run, in either direction. Each run is then an independent decode unit: a
// closed-GOP video splits at every I frame, while a video with arbitrary
// (e.g. corrupted-container) reference structure degrades gracefully toward
// a single serial span. Only the headers matter — payload corruption cannot
// move a span boundary, so parallel decode of a damaged video stays exactly
// as resilient as one coded-order pass over the whole video.
func headerRefSpans(v *Video) [][2]int {
	n := len(v.Frames)
	if n == 0 {
		return nil
	}
	// A cut before frame c is sound iff no frame at or after c references a
	// frame before c (suffix min) AND no frame before c references a frame
	// at or after c (prefix max). The second direction matters for
	// malformed inputs: a forward reference must observe the same
	// "not yet decoded" nil a coded-order pass sees, never a speculatively
	// decoded frame from a later span. Out-of-range refs never resolve to a
	// frame, so they are ignored.
	sufMin := make([]int, n+1)
	sufMin[n] = n
	for i := n - 1; i >= 0; i-- {
		m := sufMin[i+1]
		for _, r := range [2]int{v.Frames[i].RefFwd, v.Frames[i].RefBwd} {
			if validFrameRef(r, n) && r < m {
				m = r
			}
		}
		sufMin[i] = m
	}
	var spans [][2]int
	start, preMax := 0, -1
	for c := 1; c < n; c++ {
		for _, r := range [2]int{v.Frames[c-1].RefFwd, v.Frames[c-1].RefBwd} {
			if validFrameRef(r, n) && r > preMax {
				preMax = r
			}
		}
		if sufMin[c] >= c && preMax < c {
			spans = append(spans, [2]int{start, c})
			start = c
		}
	}
	return append(spans, [2]int{start, n})
}

// DecodeContext reconstructs the display-order sequence from the coded
// video. Independent closed-GOP spans decode concurrently (workers <= 0
// selects GOMAXPROCS; workers = 1 is the serial decode), and the output is
// bit- and pixel-identical at every worker count for any input, corrupted
// payloads included. Cancellation is cooperative and checked at frame
// boundaries. It is DecodeInto over frames drawn from frame.Scratch's pool,
// each as its turn comes; they are the caller's.
//
// The decoder is error-resilient: arbitrarily corrupted payloads produce
// damaged pictures, never a panic or an abort. Every value read from the
// entropy stream is range-checked and clamped; when the stream desyncs the
// decoder keeps interpreting garbage within the frame (the paper's Figure
// 2(c) behaviour) and resynchronizes at the next frame boundary, because
// each frame's payload is independently delimited by its precisely-stored
// header and the entropy context is reset per frame. DecodeOptions has no
// fields; it is accepted and ignored.
//
// The observer attached to ctx (obs.With) receives the decode stage span,
// per-frame progress and counters, including the entropy-resync events of
// damaged slices; span workers run under pprof labels (stage=decode,
// span=N).
func DecodeContext(ctx context.Context, v *Video, _ DecodeOptions, workers int) (*frame.Sequence, error) {
	seq := &frame.Sequence{Name: "decoded", FPS: v.FPS, Frames: make([]*frame.Frame, len(v.Frames))}
	if err := decodeInto(ctx, v, seq.Frames, workers); err != nil {
		for _, f := range seq.Frames {
			frame.Recycle(f)
		}
		return nil, err
	}
	return seq, nil
}

// DecodeInto is the decode into frames the caller owns: out[d] receives
// display frame d, every sample of it overwritten, and out must hold one
// frame of the video's geometry per coded frame. Each coded frame is
// reconstructed in its display slot's frame, and later frames predict from
// it there: nothing is copied. A header table that is not a permutation is
// decoded all the same: a slot two frames claim shows the last of them in
// coded order, the earlier ones are reconstructed in pooled frames for the
// frames that predict from them, and a slot no frame claims is blank. The
// display indices are checked before anything is decoded; on an error the
// contents of out are unspecified.
func DecodeInto(ctx context.Context, v *Video, out []*frame.Frame, workers int) error {
	if len(out) != len(v.Frames) {
		return fmt.Errorf("codec: decoding %d frames into %d", len(v.Frames), len(out))
	}
	for _, f := range out {
		if f == nil || f.W != v.W || f.H != v.H {
			return fmt.Errorf("codec: output frames must be %dx%d", v.W, v.H)
		}
	}
	return decodeInto(ctx, v, out, workers)
}

// decodeInto is DecodeInto where a nil out[d] is filled with a frame of
// frame.Scratch's pool, taken when its coded frame's turn comes. A decode
// then holds only the frames it has reached: frames drawn all up front are
// live to the collector for the whole decode, which raised a Monte-Carlo
// loop's peak RSS by about 8 % (two clients, 320×176, 2 vCPUs).
func decodeInto(ctx context.Context, v *Video, out []*frame.Frame, workers int) error {
	if err := checkGeometry(v.W, v.H); err != nil {
		return err
	}
	// last[d] is the last coded frame claiming display slot d, -1 for none.
	last := make([]int, len(out))
	for d := range last {
		last[d] = -1
	}
	for i, ef := range v.Frames {
		d := ef.DisplayIdx
		if d < 0 || d >= len(out) {
			return errDisplayIndex(d)
		}
		last[d] = i
	}
	coded := make([]*frame.Frame, len(v.Frames))
	for d, i := range last {
		if i >= 0 {
			coded[i] = out[d]
			continue
		}
		if out[d] == nil {
			out[d] = frame.Scratch(v.W, v.H)
		}
		clear(out[d].Y)
		clear(out[d].Cb)
		clear(out[d].Cr)
	}
	err := decodeFrames(ctx, v, coded, workers)
	for i, ef := range v.Frames {
		if d := ef.DisplayIdx; last[d] == i {
			out[d] = coded[i]
		} else {
			frame.Recycle(coded[i]) // an overwritten claimant's pooled frame
		}
	}
	return err
}

// decodeFrames is the one decoder body: it reconstructs coded frame i into
// out[i] — into a frame of frame.Scratch's pool, taken when its turn comes,
// where out[i] is nil — in coded order within each independent span of
// headerRefSpans and the spans concurrently, publishing to the observer
// attached to ctx. A header reference resolves to a frame already
// reconstructed, never to one still waiting for its turn, so an output frame
// is read only once written.
func decodeFrames(ctx context.Context, v *Video, out []*frame.Frame, workers int) error {
	o := obs.From(ctx)
	defer obs.StartSpan(o, obs.StageDecode).End()
	// Spans never share reference frames, so each goroutine touches only its
	// own disjoint range of rec; within a span frames decode in coded order.
	rec := make([]*frame.Frame, len(v.Frames))
	spans := headerRefSpans(v)
	return par.ForEachLabeled(ctx, len(spans), workers, obs.StageDecode, "span", func(si int) error {
		sp := spans[si]
		fd := newFrameDecoder(v, rec, o)
		for i := sp[0]; i < sp[1]; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if out[i] == nil {
				out[i] = frame.Scratch(v.W, v.H)
			}
			fd.decode(i, out[i])
			rec[i] = out[i]
			o.Counter(obs.CtrDecodeFrames, v.Frames[i].Type.String(), 1)
			o.FrameDone(obs.StageDecode, 1)
		}
		return nil
	})
}

func errDisplayIndex(d int) error {
	return fmt.Errorf("codec: display index %d out of range", d)
}
