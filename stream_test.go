package videoapp

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"videoapp/internal/y4m"
)

// streamTestSeq builds a multi-GOP sequence with a ragged final GOP, the
// shape that exercises both chunk grouping and tail handling.
func streamTestSeq(t *testing.T) (*Sequence, Params) {
	t.Helper()
	seq, err := GenerateTestVideo("crew_like", 96, 64, 4*4+2)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.GOPSize = 4
	p.SearchRange = 8
	return seq, p
}

func sequencesEqual(t *testing.T, a, b *Sequence) {
	t.Helper()
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("%d frames vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if !bytes.Equal(a.Frames[i].Y, b.Frames[i].Y) ||
			!bytes.Equal(a.Frames[i].Cb, b.Frames[i].Cb) ||
			!bytes.Equal(a.Frames[i].Cr, b.Frames[i].Cr) {
			t.Fatalf("frame %d pixels differ", i)
		}
	}
}

// TestProcessStreamBitIdenticalToBatch pins the tentpole acceptance
// criterion: the streamed Result — encoded bits, partitions, analysis,
// footprint stats, and the seeded round trip — equals the batch Result
// bit for bit at chunk sizes {1,2,4} GOPs × workers {1,8}.
func TestProcessStreamBitIdenticalToBatch(t *testing.T) {
	seq, params := streamTestSeq(t)
	const seed = 7

	batch, err := NewPipeline(WithParams(params), WithWorkers(1)).ProcessContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	batchBytes := Marshal(batch.Video)
	batchDec, batchFlips, err := batch.StoreRoundTripContext(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}

	for _, gops := range []int{1, 2, 4} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("gops=%d/workers=%d", gops, workers), func(t *testing.T) {
				p := NewPipeline(WithParams(params), WithWorkers(workers), WithChunkGOPs(gops))
				res, err := p.ProcessStream(context.Background(), SequenceSource(seq))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(Marshal(res.Video), batchBytes) {
					t.Fatal("streamed container bytes differ from batch")
				}
				if !reflect.DeepEqual(res.Partitions, batch.Partitions) {
					t.Fatal("streamed partitions differ from batch")
				}
				if !reflect.DeepEqual(res.Stats, batch.Stats) {
					t.Fatalf("streamed stats differ from batch:\n%+v\n%+v", res.Stats, batch.Stats)
				}
				if !reflect.DeepEqual(res.Analysis.Importance, batch.Analysis.Importance) {
					t.Fatal("streamed importance differs from batch")
				}
				dec, flips, err := res.StoreRoundTripContext(context.Background(), seed)
				if err != nil {
					t.Fatal(err)
				}
				if flips != batchFlips {
					t.Fatalf("streamed round trip injected %d flips, batch %d", flips, batchFlips)
				}
				sequencesEqual(t, dec, batchDec)
			})
		}
	}
}

// TestStreamToArchiveRandomAccess pins the archive acceptance criterion
// end to end: a streamed archive supports reading and round-tripping one
// chunk at a time, and thanks to per-frame error streams (FrameOffset) the
// per-chunk round trips concatenate to exactly the whole-video round trip.
func TestStreamToArchiveRandomAccess(t *testing.T) {
	seq, params := streamTestSeq(t)
	const seed = 11

	batch, err := NewPipeline(WithParams(params), WithWorkers(4)).ProcessContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	batchDec, batchFlips, err := batch.StoreRoundTripContext(context.Background(), seed)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPipeline(WithParams(params), WithWorkers(4), WithChunkGOPs(1))
	var buf bytes.Buffer
	meta, stats, err := p.StreamToArchive(context.Background(), SequenceSource(seq), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.W != seq.W() || meta.H != seq.H() || meta.GOPSize != params.GOPSize {
		t.Fatalf("archive meta %+v does not match input", meta)
	}
	if stats.PayloadBits != batch.Stats.PayloadBits {
		t.Fatalf("archive payload bits %d, batch %d", stats.PayloadBits, batch.Stats.PayloadBits)
	}

	a, err := OpenArchive(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalFrames() != len(seq.Frames) {
		t.Fatalf("archive holds %d frames, want %d", a.TotalFrames(), len(seq.Frames))
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
		dec, flips, err := p.RoundTripChunk(context.Background(), cr.Video, cr.Parts, info.FirstFrame, seed)
		if err != nil {
			t.Fatal(err)
		}
		flipsSum += flips
		for f := range dec.Frames {
			g := info.FirstFrame + f
			if !bytes.Equal(dec.Frames[f].Y, batchDec.Frames[g].Y) {
				t.Fatalf("chunk %d frame %d: single-chunk round trip differs from whole-video frame %d", i, f, g)
			}
		}
	}
	if flipsSum != batchFlips {
		t.Fatalf("per-chunk flips sum to %d, whole-video round trip injected %d", flipsSum, batchFlips)
	}
}

// TestProcessStreamY4M runs the streaming pipeline from an actual y4m byte
// stream and checks it matches the in-memory source path.
func TestProcessStreamY4M(t *testing.T) {
	seq, params := streamTestSeq(t)
	var y4mBuf bytes.Buffer
	if err := y4m.Write(&y4mBuf, seq); err != nil {
		t.Fatal(err)
	}
	src, err := Y4MSource(&y4mBuf, "stream")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(WithParams(params), WithChunkGOPs(2))
	fromY4M, err := p.ProcessStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	fromSeq, err := p.ProcessStream(context.Background(), SequenceSource(seq))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Marshal(fromY4M.Video), Marshal(fromSeq.Video)) {
		t.Fatal("y4m-sourced stream differs from sequence-sourced stream")
	}
}

func TestProcessStreamRejectsOpenGOPs(t *testing.T) {
	seq, params := streamTestSeq(t)
	params.BFrames = 2
	params.GOPSize = 6
	p := NewPipeline(WithParams(params))
	if _, err := p.ProcessStream(context.Background(), SequenceSource(seq)); err == nil {
		t.Fatal("open-GOP streaming must be rejected")
	}
}

func TestRoundTripChunkRejectsNegativeOffset(t *testing.T) {
	seq, params := streamTestSeq(t)
	res, err := NewPipeline(WithParams(params)).ProcessContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(WithParams(params))
	if _, _, err := p.RoundTripChunk(context.Background(), res.Video, res.Partitions, -1, 1); err == nil {
		t.Fatal("negative first frame must be rejected")
	}
}
