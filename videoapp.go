// Package videoapp is the public API of the VideoApp reproduction: a
// framework for approximate storage of compressed (and optionally encrypted)
// videos, after "Approximate Storage of Compressed and Encrypted Videos"
// (ASPLOS 2017).
//
// The pipeline mirrors the paper:
//
//	seq, err := videoapp.GenerateTestVideo("crew_like", 320, 176, 60)
//	p := videoapp.NewPipeline(videoapp.WithWorkers(0))        // 0 = GOMAXPROCS
//	res, err := p.ProcessContext(ctx, seq)                    // encode + analyze + partition
//	decoded, flips, err := res.StoreRoundTripContext(ctx, 42) // approximate MLC round trip
//
// ProcessContext encodes the raw sequence with an H.264-class codec, runs the
// VideoApp dependency analysis to compute per-macroblock importance, derives
// the per-frame pivot layout, and reports the physical storage footprint on
// the MLC PCM substrate. StoreRoundTripContext simulates a write-scrub-read cycle
// with variable error correction and decodes the (possibly damaged) result.
//
// # Concurrency
//
// Every stage of the pipeline is frame- or GOP-parallel: encoding and
// decoding fan out over independent closed-GOP spans, error injection,
// footprint accounting and quality metrics fan out per frame, and the
// dependency analysis fans out over independent spans of its DAG. The
// worker count is configured once with WithWorkers and results are
// guaranteed identical at every worker count, and the seeded storage round
// trip is a pure function of (video, partitions, seed). Each stage has one
// entry point, context-first (EncodeContext, DecodeContext, AnalyzeContext,
// MeasureContext, PSNRContext), with cooperative cancellation checked at
// frame boundaries; workers = 1 is the serial form, and no serial twin
// exists beside it.
//
// # Serving
//
// The read path of an archived video is OpenArchive (lock-free concurrent
// ReadChunkContext over an io.ReaderAt) fronted by NewCatalog, an HTTP
// server over one or many named archives with a sized LRU decoded-chunk
// cache and request coalescing; see stream.go and the internal/serve package
// documentation.
//
// The underlying subsystems are exposed as type aliases so that advanced
// users can drive them directly: the codec (EncodeContext/DecodeContext),
// the analysis (AnalyzeContext), stream splitting for per-reliability
// encryption (SplitStreams/EncryptStreams), quality metrics
// (MeasureContext/PSNRContext), and the error-correction and substrate
// models.
package videoapp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"videoapp/internal/bch"
	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/cryptomode"
	"videoapp/internal/frame"
	"videoapp/internal/mlc"
	"videoapp/internal/obs"
	"videoapp/internal/quality"
	"videoapp/internal/store"
	"videoapp/internal/synth"
)

// Sentinel errors of the public API. Returned errors wrap these with
// context (preset names, counts, frame numbers); match with errors.Is.
var (
	// ErrUnknownPreset reports a synthetic preset name that does not exist.
	ErrUnknownPreset = errors.New("unknown preset")
	// ErrPartitionMismatch reports a partition list whose length does not
	// match the video's frame count.
	ErrPartitionMismatch = store.ErrPartitionMismatch
	// ErrNonMonotone reports a violation of the §4.4 invariant that
	// importance never increases in scan order within a slice.
	ErrNonMonotone = core.ErrNonMonotone
)

// Re-exported core types. The aliases form the public surface; the internal
// packages carry the implementations.
type (
	// Video is an encoded video with per-macroblock records.
	Video = codec.Video
	// Params configures the encoder.
	Params = codec.Params
	// Sequence is a raw YUV 4:2:0 video.
	Sequence = frame.Sequence
	// Frame is a raw YUV 4:2:0 picture.
	Frame = frame.Frame
	// Analysis is the per-macroblock importance map.
	Analysis = core.Analysis
	// ClassAssignment maps importance classes to ECC schemes.
	ClassAssignment = core.ClassAssignment
	// FramePartition is the per-frame pivot layout.
	FramePartition = core.FramePartition
	// StreamSet is the per-reliability multi-stream form of a video.
	StreamSet = core.StreamSet
	// Scheme is one error-correction configuration.
	Scheme = bch.Scheme
	// Substrate is the MLC storage cell model.
	Substrate = mlc.Substrate
	// StorageStats is the physical footprint of a stored video.
	StorageStats = store.Stats
	// QualityReport bundles PSNR/SSIM/MS-SSIM/VIF.
	QualityReport = quality.Report
	// CipherMode is an AES mode of operation.
	CipherMode = cryptomode.Mode
	// EntropyCoder selects the entropy coder (CABAC or CAVLC).
	EntropyCoder = codec.EntropyKind
	// Observer receives pipeline instrumentation events (stage spans,
	// per-frame progress, counters and gauges); see the internal/obs
	// package documentation for the event vocabulary.
	Observer = obs.Observer
	// Metrics is the thread-safe aggregating Observer: attach one like any
	// other observer (ContextWithObserver), keep the pointer
	// and read it with Metrics.Snapshot. Its counters reconcile with the
	// Result: footprint_payload_bits per scheme equals Stats.PerScheme,
	// footprint_header_bits equals Stats.HeaderBits, and the
	// store_residual_flips total since the last Metrics.Reset equals the sum
	// of the flip counts returned by the round trips run in that window.
	Metrics = obs.Metrics
	// MetricsSnapshot is a consistent point-in-time copy of a Metrics.
	MetricsSnapshot = obs.Snapshot
	// Trace is the streaming JSON-lines trace Observer.
	Trace = obs.Trace
)

// NewMetrics returns an empty metrics aggregator.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewTrace returns a trace sink streaming one JSON event per line to w.
func NewTrace(w io.Writer) *Trace { return obs.NewTrace(w) }

// MultiObserver combines observers into one that fans every event out in
// argument order; nil entries are dropped.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// ContextWithObserver returns a context carrying o. Every *Context API in
// this package (EncodeContext, DecodeContext, AnalyzeContext,
// MeasureContext, and the pipeline stages they back) reports its stage
// span, per-frame progress and counters to the observer attached to the
// context it runs under, and so does every Pipeline call (spans, counters
// and footprint gauges alike). It is the one way to observe a pipeline
// call; a Catalog, which has no caller context, takes WithServeObserver.
func ContextWithObserver(ctx context.Context, o Observer) context.Context {
	return obs.With(ctx, o)
}

// Entropy coder selections.
const (
	CABAC = codec.CABAC
	CAVLC = codec.CAVLC
)

// AES modes of operation (§5).
const (
	ModeECB = cryptomode.ECB
	ModeCBC = cryptomode.CBC
	ModeOFB = cryptomode.OFB
	ModeCTR = cryptomode.CTR
)

// DefaultParams returns the paper's standard-quality encoder configuration
// (CRF 24, CABAC, no B frames).
func DefaultParams() Params { return codec.DefaultParams() }

// EncodeContext is the canonical encode entry point: it compresses a raw
// sequence with GOP-level parallelism (workers <= 0 selects GOMAXPROCS) and
// cooperative cancellation checked at GOP boundaries. Output is
// bit-identical at every worker count. An open-GOP configuration
// (BFrames > 0) is one unit of work, encoded whole and not cancellable
// mid-video.
func EncodeContext(ctx context.Context, seq *Sequence, p Params, workers int) (*Video, error) {
	return codec.EncodeParallelContext(ctx, seq, p, workers)
}

// DecodeContext is the canonical decode entry point: it reconstructs the
// display-order sequence over independent closed-GOP spans concurrently
// (workers <= 0 selects GOMAXPROCS) with cooperative cancellation checked
// at frame boundaries. It is error-resilient — corrupted payloads never
// fail, they decode to damaged pictures — and its output is bit- and
// pixel-identical at every worker count.
func DecodeContext(ctx context.Context, v *Video, workers int) (*Sequence, error) {
	return codec.DecodeContext(ctx, v, codec.DecodeOptions{}, workers)
}

// AnalyzeContext is the canonical analysis entry point: it computes the
// per-macroblock importance map (§4.3) with fan-out over independent spans
// of the dependency DAG (workers <= 0 selects GOMAXPROCS) and cooperative
// cancellation; the result is bit-identical at every worker count.
func AnalyzeContext(ctx context.Context, v *Video, workers int) (*Analysis, error) {
	return core.AnalyzeContext(ctx, v, core.DefaultOptions(), workers)
}

// PaperAssignment returns Table 1's importance-class → scheme mapping.
func PaperAssignment() ClassAssignment { return core.PaperAssignment() }

// UniformAssignment protects every bit precisely (the baseline design).
func UniformAssignment() ClassAssignment { return core.UniformAssignment() }

// SplitStreams separates a partitioned video into per-reliability streams
// (§5.3), e.g. for independent encryption.
func SplitStreams(v *Video, parts []FramePartition) (*StreamSet, error) {
	return core.SplitStreams(v, parts)
}

// EncryptStreams encrypts each substream with an approximation-compatible
// AES mode (OFB or CTR) under per-stream derived IVs.
func EncryptStreams(ss *StreamSet, mode CipherMode, key, master []byte) (*cryptomode.EncryptedStreams, error) {
	return cryptomode.EncryptStreams(ss, mode, key, master)
}

// Marshal serializes an encoded video into the self-contained container
// format (precise headers followed by approximable payloads).
func Marshal(v *Video) []byte { return codec.Marshal(v) }

// Unmarshal parses a container produced by Marshal.
func Unmarshal(data []byte) (*Video, error) { return codec.Unmarshal(data) }

// Reanalyze rebuilds the per-macroblock analysis records of a video by
// decoding it — the path for analyzing videos loaded with Unmarshal (the
// paper's VideoApp accepts any encoded video as input, not only ones it
// encoded itself).
func Reanalyze(v *Video) error { return codec.Reanalyze(v) }

// MeasureContext is the canonical quality-measurement entry point: it
// computes all quality metrics (PSNR, SSIM, MS-SSIM, VIF) between two
// sequences with per-frame metric workers (workers <= 0 selects GOMAXPROCS)
// and cooperative cancellation; the result is identical at every worker
// count.
func MeasureContext(ctx context.Context, ref, dist *Sequence, workers int) (QualityReport, error) {
	return quality.MeasureContext(ctx, ref, dist, workers)
}

// PSNRContext computes the average per-frame luma PSNR between two
// sequences — the paper's reported metric — with per-frame workers
// (workers <= 0 selects GOMAXPROCS) and cooperative cancellation; the
// result is identical at every worker count.
func PSNRContext(ctx context.Context, ref, dist *Sequence, workers int) (float64, error) {
	return quality.PSNRContext(ctx, ref, dist, workers)
}

// GenerateTestVideo renders one of the 14 synthetic suite sequences at the
// given geometry. Unknown presets return an error wrapping ErrUnknownPreset;
// see PresetNames.
func GenerateTestVideo(preset string, w, h, frames int) (*Sequence, error) {
	cfg, ok := synth.PresetByName(preset)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownPreset, preset)
	}
	return synth.Generate(cfg.ScaleTo(w, h, frames)), nil
}

// PresetNames lists the available synthetic test sequences.
func PresetNames() []string {
	names := make([]string, len(synth.Presets))
	for i, p := range synth.Presets {
		names[i] = p.Name
	}
	return names
}

// Pipeline bundles the full paper workflow with overridable components.
// NewPipeline and its functional options (WithParams, WithAssignment,
// WithSubstrate, WithWorkers, WithBlockAccurate, WithChunkGOPs) are the one
// way to configure it; a pipeline is immutable afterwards and safe for
// concurrent use. Observers ride the call's context (ContextWithObserver).
type Pipeline struct {
	params        Params
	assignment    ClassAssignment
	substrate     Substrate
	workers       int
	blockAccurate bool
	chunkGOPs     int
}

// Option configures a Pipeline at construction time.
type Option func(*Pipeline)

// WithParams sets the encoder configuration (default: DefaultParams).
func WithParams(p Params) Option { return func(pl *Pipeline) { pl.params = p } }

// WithAssignment sets the importance-class → ECC-scheme mapping (default:
// PaperAssignment).
func WithAssignment(a ClassAssignment) Option { return func(pl *Pipeline) { pl.assignment = a } }

// WithSubstrate sets the storage cell model (default: 8-level MLC PCM).
func WithSubstrate(s Substrate) Option { return func(pl *Pipeline) { pl.substrate = s } }

// WithWorkers bounds the concurrency of every pipeline stage; n <= 0 (the
// default) selects GOMAXPROCS. Results are identical at every worker count.
// The streaming paths split the same budget between chunks in flight and
// the workers inside each chunk, so it also bounds their peak memory (see
// StreamToArchive).
func WithWorkers(n int) Option { return func(pl *Pipeline) { pl.workers = n } }

// WithBlockAccurate switches storage round trips from the nominal
// per-scheme residual rates (Table 1) to explicit per-512-bit-block
// binomial error simulation with BCH correction accounting.
func WithBlockAccurate(on bool) Option { return func(pl *Pipeline) { pl.blockAccurate = on } }

// WithChunkGOPs sets the streaming chunk granularity in closed GOPs
// (ProcessStream, StreamToArchive); n <= 0 selects 1. Larger chunks
// amortize per-chunk overhead at the cost of higher peak memory and coarser
// archive random-access units; results are identical at every granularity.
func WithChunkGOPs(n int) Option { return func(pl *Pipeline) { pl.chunkGOPs = n } }

// NewPipeline returns a pipeline with the paper's defaults, then applies
// the options in order.
//
// Every videoapp CLI flag maps 1:1 onto the library surface:
//
//	-crf -gop -bframes -slices -halfpel -deblock -entropy   WithParams
//	-workers                                                WithWorkers
//	-chunk-gops                                             WithChunkGOPs
//	-seed                      the seed argument of StoreRoundTripContext / RoundTripChunk
//	-metrics, -trace-out       ContextWithObserver(ctx, MultiObserver(NewMetrics(), NewTrace(w)))
func NewPipeline(opts ...Option) *Pipeline {
	p := &Pipeline{
		params:     codec.DefaultParams(),
		assignment: core.PaperAssignment(),
		substrate:  mlc.Default(),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// system builds the configured approximate storage system.
func (p *Pipeline) system() (*store.System, error) {
	return store.New(store.Config{
		Substrate:     p.substrate,
		Assignment:    p.assignment,
		BlockAccurate: p.blockAccurate,
	})
}

// Result is a processed video ready for approximate storage.
type Result struct {
	Video      *Video
	Analysis   *Analysis
	Partitions []FramePartition
	Stats      StorageStats
	// system is the storage system the footprint was computed under, built
	// once by ProcessContext or ProcessStream and reused by every round
	// trip; workers is the pipeline's worker budget.
	system  *store.System
	workers int
}

// ProcessContext encodes, analyzes and partitions a raw sequence, and
// computes its storage footprint under the pipeline's assignment. Every
// stage (GOP-parallel encode, span-parallel analysis, per-frame footprint)
// checks ctx at frame boundaries and returns ctx.Err() promptly once it is
// cancelled. The result is identical at every worker count, with or without
// an observer attached.
func (p *Pipeline) ProcessContext(ctx context.Context, seq *Sequence) (*Result, error) {
	v, err := EncodeContext(ctx, seq, p.params, p.workers)
	if err != nil {
		return nil, err
	}
	an, err := core.AnalyzeContext(ctx, v, core.DefaultOptions(), p.workers)
	if err != nil {
		return nil, err
	}
	if err := an.CheckMonotone(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(obs.From(ctx), obs.StagePartition)
	parts := an.Partition(p.assignment)
	sp.End()
	sys, err := p.system()
	if err != nil {
		return nil, err
	}
	stats, err := sys.FootprintContext(ctx, v, parts, seq.PixelCount(), p.workers)
	if err != nil {
		return nil, err
	}
	return &Result{Video: v, Analysis: an, Partitions: parts, Stats: stats, system: sys, workers: p.workers}, nil
}

// StoreRoundTripContext simulates one approximate storage round trip
// (write, scrub for the substrate's reference interval, read with residual
// errors) and decodes the result. Error injection and decoding run
// frame-parallel under the pipeline's worker budget; for a fixed seed the
// outcome is a pure function of the processed video — independent of the
// worker count. Cancellation is checked at frame boundaries. The Result
// must come from ProcessContext or ProcessStream, which fix the storage
// system it is stored on; one built by hand reports an error.
func (r *Result) StoreRoundTripContext(ctx context.Context, seed int64) (*Sequence, int, error) {
	if r.system == nil {
		return nil, 0, errors.New("videoapp: round trip of a Result not built by ProcessContext or ProcessStream")
	}
	return roundTrip(ctx, r.system, r.Video, r.Partitions, 0, seed, r.workers)
}

// roundTrip is the one storage round trip behind StoreRoundTripContext and
// RoundTripChunk: store v on sys with the seeded residual errors (frame
// indices offset by firstFrame), decode the damaged copy and release it.
// Observers ride ctx, so every event publishes exactly once.
func roundTrip(ctx context.Context, sys *store.System, v *Video, parts []FramePartition, firstFrame int, seed int64, workers int) (*Sequence, int, error) {
	stored, flips, err := sys.StoreContext(ctx, v, parts, store.StoreOpts{
		Seed: seed, FrameOffset: firstFrame, Workers: workers,
	})
	if err != nil {
		return nil, 0, err
	}
	seq, err := codec.DecodeContext(ctx, stored, codec.DecodeOptions{}, workers)
	// The decoded frames do not alias the stored copy: hand its buffers to
	// the next trip.
	stored.Release()
	return seq, flips, err
}
