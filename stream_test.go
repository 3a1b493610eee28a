package videoapp

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"videoapp/internal/y4m"
)

// TestProcessStreamBitIdenticalToBatch pins the tentpole acceptance
// criterion: the streamed Result — encoded bits, partitions, analysis,
// footprint stats, and the seeded round trip — equals the batch Result
// bit for bit at chunk sizes {1,2,4} GOPs × workers {1,8}.
func TestProcessStreamBitIdenticalToBatch(t *testing.T) {
	e, batch := mainOf(t), referenceOf(t)
	for _, gops := range []int{1, 2, 4} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("gops=%d/workers=%d", gops, workers), func(t *testing.T) {
				res, err := e.pipeline(workers, WithChunkGOPs(gops)).ProcessStream(context.Background(), SequenceSource(e.seq))
				if err != nil {
					t.Fatal(err)
				}
				dec, flips, err := res.StoreRoundTripContext(context.Background(), roundTripSeed)
				if err != nil {
					t.Fatal(err)
				}
				if d := (outcome{res: res, container: Marshal(res.Video), dec: dec, flips: flips}).departure(batch); d != "" {
					t.Fatalf("streamed %s differ from batch", d)
				}
			})
		}
	}
}

// TestStreamToArchiveRandomAccess pins the archive acceptance criterion
// end to end: a streamed archive supports reading and round-tripping one
// chunk at a time, and thanks to per-frame error streams (FrameOffset) the
// per-chunk round trips concatenate to exactly the whole-video round trip.
func TestStreamToArchiveRandomAccess(t *testing.T) {
	e, batch := mainOf(t), referenceOf(t)
	p := e.pipeline(4, WithChunkGOPs(1))
	var buf bytes.Buffer
	meta, stats, err := p.StreamToArchive(context.Background(), SequenceSource(e.seq), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.W != e.seq.W() || meta.H != e.seq.H() || meta.GOPSize != e.p.GOPSize {
		t.Fatalf("archive meta %+v does not match input", meta)
	}
	if stats.PayloadBits != e.res.Stats.PayloadBits {
		t.Fatalf("archive payload bits %d, batch %d", stats.PayloadBits, e.res.Stats.PayloadBits)
	}

	a, err := OpenArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a.Meta() != meta || a.TotalFrames() != len(e.seq.Frames) {
		t.Fatalf("archive holds %+v and %d frames, want %+v and %d", a.Meta(), a.TotalFrames(), meta, len(e.seq.Frames))
	}
	var flipsSum int
	for i := 0; i < a.NumChunks(); i++ {
		info, err := a.Info(i)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := a.ReadChunkContext(context.Background(), i)
		if err != nil || len(cr.Degraded) > 0 {
			t.Fatalf("chunk %d: %v (degraded %v)", i, err, cr.Degraded)
		}
		dec, flips, err := p.RoundTripChunk(context.Background(), cr.Video, cr.Parts, info.FirstFrame, roundTripSeed)
		if err != nil {
			t.Fatal(err)
		}
		flipsSum += flips
		for f := range dec.Frames {
			g := info.FirstFrame + f
			if !bytes.Equal(dec.Frames[f].Y, batch.dec.Frames[g].Y) {
				t.Fatalf("chunk %d frame %d: single-chunk round trip differs from whole-video frame %d", i, f, g)
			}
		}
	}
	if flipsSum != batch.flips {
		t.Fatalf("per-chunk flips sum to %d, whole-video round trip injected %d", flipsSum, batch.flips)
	}
}

// TestProcessStreamY4M runs the streaming pipeline from an actual y4m byte
// stream and checks it matches the batch result of the same frames.
func TestProcessStreamY4M(t *testing.T) {
	e := mainOf(t)
	var y4mBuf bytes.Buffer
	if err := y4m.Write(&y4mBuf, e.seq); err != nil {
		t.Fatal(err)
	}
	src, err := Y4MSource(&y4mBuf, "stream")
	if err != nil {
		t.Fatal(err)
	}
	fromY4M, err := e.pipeline(0, WithChunkGOPs(2)).ProcessStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Marshal(fromY4M.Video), Marshal(e.res.Video)) {
		t.Fatal("y4m-sourced stream differs from the batch result")
	}
}

func TestProcessStreamRejectsOpenGOPs(t *testing.T) {
	e := mainOf(t)
	params := e.p
	params.BFrames = 2
	params.GOPSize = 6
	if _, err := NewPipeline(WithParams(params)).ProcessStream(context.Background(), SequenceSource(e.seq)); err == nil {
		t.Fatal("open-GOP streaming must be rejected")
	}
}

func TestRoundTripChunkRejectsNegativeOffset(t *testing.T) {
	e := mainOf(t)
	if _, _, err := e.pipeline(1).RoundTripChunk(context.Background(), e.res.Video, e.res.Partitions, -1, 1); err == nil {
		t.Fatal("negative first frame must be rejected")
	}
}
