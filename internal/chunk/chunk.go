// Package chunk is the streaming, bounded-memory form of the pipeline: it
// segments an incrementally fed frame source into closed-GOP chunks, runs
// encode → analyze → partition → store for several chunks at once, and
// commits the results in stream order, with backpressure to the source.
//
// Because every chunk boundary is a closed-GOP boundary (a multiple of the
// encoder's I-frame interval), chunks are fully independent coding units:
// no prediction, dependency edge or entropy context crosses a boundary.
// Encoding a chunk on its own therefore produces exactly the bits the batch
// encoder produces for those frames, the per-chunk dependency analysis
// equals the batch analysis restricted to the chunk (the analysis DAG
// factors at the same boundaries, see core's depSpans), and per-frame
// footprint costs accumulate across chunks to the batch totals. That is the
// invariant the public ProcessStream API pins with bit-identity tests, and
// it is also why chunks can be processed concurrently: which chunk finishes
// first changes nothing a chunk computes, and the sink sees them in order.
//
// Memory stays bounded by the chunk size and the worker count, not the
// video length: with K = ⌈Workers/GOPsPerChunk⌉ chunks in flight, at most
// K + 2 chunks exist between the source and the end of the sink (K being
// processed or waiting their turn to commit, one the chunker has read
// ahead, one in the sink), and a chunk's raw frames are dropped as soon as
// it is encoded. A server ingesting an hour of video peaks at those few
// chunks of frames plus the (much smaller) encoded outputs.
package chunk

import (
	"context"
	"fmt"
	"io"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/par"
	"videoapp/internal/store"
)

// Config parameterizes one streaming run.
type Config struct {
	// Params configures the encoder. BFrames must be 0: streaming requires
	// closed GOPs, which is also what makes chunked output bit-identical
	// to batch output.
	Params codec.Params
	// Assignment maps importance classes to ECC schemes for partitioning.
	Assignment core.ClassAssignment
	// System, when non-nil, computes per-frame footprint costs for every
	// chunk (Processed.Costs).
	System *store.System
	// GOPsPerChunk sets the chunk granularity in GOPs; <= 0 selects 1.
	// Larger chunks amortize per-chunk overhead at the cost of higher peak
	// memory and coarser random-access units.
	GOPsPerChunk int
	// Workers bounds the run's total concurrency; <= 0 selects GOMAXPROCS.
	// The budget is split between chunks in flight and the fan-out inside
	// each (GOP-parallel encode, span-parallel analysis, frame-parallel
	// costs), see fanOut. Results are identical at every worker count.
	Workers int
}

// gopsPerChunk normalizes the chunk granularity.
func (c Config) gopsPerChunk() int {
	if c.GOPsPerChunk <= 0 {
		return 1
	}
	return c.GOPsPerChunk
}

// fanOut splits the Workers budget W over chunks of G GOPs: K = ⌈W/G⌉
// chunks in flight, so that one GOP worker per GOP of every in-flight chunk
// would use the whole budget, and ⌊W/K⌋ workers inside each chunk, so that
// K × inner never exceeds W. One-GOP chunks get W chunks with serial
// insides; chunks of W or more GOPs run one at a time with W GOP workers;
// Workers == 1 is one chunk at a time, inline.
func (c Config) fanOut() (inFlight, inner int) {
	w := par.Workers(c.Workers)
	inFlight = (w + c.gopsPerChunk() - 1) / c.gopsPerChunk()
	return inFlight, w / inFlight
}

// Processed is one fully processed chunk, handed to the sink in chunk
// order. The video and partitions are chunk-local (frame indices start at
// 0), making each chunk a self-contained unit: it decodes on its own and
// appends directly to a chunked archive. FirstFrame positions it in the
// whole video for callers that stitch a batch-equivalent Result.
type Processed struct {
	// Index is the chunk's position in stream order.
	Index int
	// FirstFrame is the display/coded index of the chunk's first frame in
	// the whole video.
	FirstFrame int
	// Pixels is the chunk's raw luma pixel count.
	Pixels int64
	// Video is the chunk's encoded form with chunk-local frame indices.
	Video *codec.Video
	// Importance and CompImportance are the per-MB analysis rows
	// (chunk-local frame indexing), equal to the batch analysis restricted
	// to the chunk.
	Importance, CompImportance [][]float64
	// Parts is the chunk-local §4.4 partition layout.
	Parts []core.FramePartition
	// Costs holds per-frame footprint costs when Config.System is set.
	Costs []store.FrameCost
	// HeaderBits is the chunk's precise region size as a standalone unit:
	// chunk-local frame headers plus pivot tables. Frame indices are
	// exp-Golomb coded, so stitched (globally indexed) headers can be a
	// few bits larger; callers reconstructing batch-identical totals must
	// recompute header bits on the stitched video.
	HeaderBits int64
}

// rawChunk is a chunk of raw frames on its way to a worker.
type rawChunk struct {
	index      int
	firstFrame int
	frames     []*frame.Frame
}

// chunker groups the frames of a source into GOP-aligned chunks.
type chunker struct {
	src         Source
	chunkFrames int
	w, h        int
	index       int
	first       int
	eof         bool
}

// next pulls frames until a chunk is full or the source ends; the last
// chunk may be short. It reports false once the source is exhausted.
func (c *chunker) next(ctx context.Context) (*rawChunk, bool, error) {
	var cur []*frame.Frame
	for !c.eof && len(cur) < c.chunkFrames {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		f, err := c.src.Next()
		if err == io.EOF {
			c.eof = true
			break
		}
		if err != nil {
			return nil, false, fmt.Errorf("chunk: source: %w", err)
		}
		if c.w == 0 {
			c.w, c.h = f.W, f.H
		}
		if f.W != c.w || f.H != c.h {
			return nil, false, fmt.Errorf("chunk: frame %d geometry %dx%d differs from stream %dx%d", c.first+len(cur), f.W, f.H, c.w, c.h)
		}
		cur = append(cur, f)
	}
	if len(cur) == 0 {
		if c.index == 0 {
			return nil, false, fmt.Errorf("chunk: source has no frames")
		}
		return nil, false, nil
	}
	rc := &rawChunk{index: c.index, firstFrame: c.first, frames: cur}
	c.index++
	c.first += len(cur)
	return rc, true, nil
}

// process runs one whole chunk through encode → analyze → partition →
// footprint costs with the given inner fan-out. Closed-GOP chunks encode
// independently, and a chunk is a closed dependency span, so the
// chunk-local analysis equals the batch analysis rows. The raw frames are
// released as soon as the encode returns.
func (cfg Config) process(ctx context.Context, src Source, rc *rawChunk, workers int) (*Processed, error) {
	sub := &frame.Sequence{Name: src.Name(), FPS: src.FPS(), Frames: rc.frames}
	pixels := sub.PixelCount()
	v, err := codec.EncodeParallelContext(ctx, sub, cfg.Params, workers)
	sub.Frames, rc.frames = nil, nil
	if err != nil {
		return nil, err
	}
	an, err := core.AnalyzeContext(ctx, v, core.DefaultOptions(), workers)
	if err != nil {
		return nil, err
	}
	if err := an.CheckMonotone(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(obs.From(ctx), obs.StagePartition)
	parts := an.Partition(cfg.Assignment)
	sp.End()
	p := &Processed{
		Index: rc.index, FirstFrame: rc.firstFrame, Pixels: pixels,
		Video: v, Importance: an.Importance, CompImportance: an.CompImportance,
		Parts:      parts,
		HeaderBits: v.HeaderBits() + core.PivotOverheadBits(parts),
	}
	if cfg.System != nil {
		if p.Costs, err = cfg.System.FrameCosts(ctx, v, parts, workers); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Run drives the chunk-parallel dataflow: frames are pulled from src and
// grouped into closed-GOP chunks, up to ⌈Workers/GOPsPerChunk⌉ chunks are
// processed at once (each one whole: encode → analyze → partition →
// footprint costs), and sink receives every Processed chunk strictly in
// stream order on Run's own goroutine. The reorder window is bounded
// (par.MapOrdered), so a slow sink or a slow head chunk exerts backpressure
// all the way back to the source. On failure Run returns the error the
// serial loop would have surfaced — that of the lowest failing chunk — and
// no later chunk reaches the sink; a sink error cancels the run.
//
// Cancellation is cooperative at frame boundaries within a chunk and at
// chunk boundaries between them; every goroutine Run starts has finished
// when it returns. An observer attached to ctx (obs.With) receives each
// stage's spans and per-frame progress exactly as in the batch path, plus
// one stream_chunks count per committed chunk.
func Run(ctx context.Context, cfg Config, src Source, sink func(*Processed) error) error {
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if cfg.Params.BFrames != 0 {
		return fmt.Errorf("chunk: streaming requires closed GOPs (BFrames == 0)")
	}
	o := obs.From(ctx)
	inFlight, inner := cfg.fanOut()
	ck := &chunker{src: src, chunkFrames: cfg.gopsPerChunk() * cfg.Params.GOPSize}
	return par.MapOrdered(ctx, inFlight, "chunk", "chunk", ck.next,
		func(ctx context.Context, _ int, rc *rawChunk) (*Processed, error) {
			p, err := cfg.process(ctx, src, rc, inner)
			if err != nil {
				return nil, fmt.Errorf("chunk %d: %w", rc.index, err)
			}
			return p, nil
		},
		func(p *Processed) error {
			if err := sink(p); err != nil {
				return err
			}
			o.Counter(obs.CtrChunks, "", 1)
			return nil
		})
}
