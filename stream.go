package videoapp

// Streaming API: the chunked, bounded-memory form of the pipeline and its
// random-access archive. See the internal/chunk package documentation for
// the dataflow and the bit-identity argument; the entry points here are
// Pipeline.ProcessStream (batch-identical Result from a stream),
// Pipeline.StreamToArchive (bounded-memory write of a chunked archive) and
// OpenArchive/ReadChunkContext (random access to a single stored chunk).

import (
	"context"
	"fmt"
	"io"
	"time"

	"videoapp/internal/chunk"
	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/obs"
	"videoapp/internal/serve"
	"videoapp/internal/store"
)

type (
	// ChunkSource yields raw frames incrementally to the streaming
	// pipeline; see SequenceSource and Y4MSource.
	ChunkSource = chunk.Source
	// ArchiveMeta is the stream-wide header of a chunked archive.
	ArchiveMeta = store.ArchiveMeta
	// ChunkInfo locates one chunk inside a chunked archive.
	ChunkInfo = store.ChunkInfo
	// ChunkWriter appends processed chunks to a chunked archive.
	ChunkWriter = store.ChunkWriter
	// ChunkArchive is a lock-free random-access reader over a chunked
	// archive; ReadChunkContext is safe for any number of concurrent
	// readers.
	ChunkArchive = store.ChunkArchive
	// Catalog is the HTTP read path over N named archives — the
	// multi-tenant storage node; a single archive is a catalog of one spec.
	// It ships decoded chunk frames, per-chunk metadata, archive indexes and
	// a metrics snapshot, fronted by a sized LRU decoded-chunk cache with
	// request coalescing. Archives are declared as ArchiveSpecs, opened
	// lazily, idle-closed (WithIdleTimeout), and share the cache; each has
	// its own fault policy, circuit breaker and labeled metrics. Routes live
	// under /v1/archives/{name}/...; see the internal/serve package
	// documentation for the endpoints.
	Catalog = serve.Catalog
	// ArchiveSpec declares one Catalog tenant: a routable name and a
	// function producing its storage Backend, plus optional per-archive
	// ArchiveOptions (WithArchivePolicy, WithMirror).
	ArchiveSpec = serve.ArchiveSpec
	// Backend is the pluggable storage seam archives live on: positionless
	// reads and writes plus lifecycle. See OpenFileBackend and
	// NewSnapshotBackend; internal/faultio decorates any Backend with
	// deterministic fault injection. A Backend is an io.ReaderAt: open an
	// archive over one with OpenArchive.
	Backend = store.Backend
	// ServeOption configures a Catalog at construction; see
	// WithCacheBytes, WithPrefetch, WithRequestTimeout,
	// WithServeWorkers, WithIdleTimeout and WithServeObserver.
	ServeOption = serve.Option
	// ArchiveOption configures a ChunkArchive at open time; see
	// WithArchivePolicy and WithMirror.
	ArchiveOption = store.ArchiveOption
	// FaultPolicy is the knob set of the fault-tolerant read path: retry
	// count, backoff and the serving layer's circuit breaker. The zero
	// value selects every documented default. It reaches an archive one
	// way, WithArchivePolicy: in OpenArchive's options when you open it
	// yourself, in ArchiveSpec.Options when a Catalog opens it.
	FaultPolicy = store.FaultPolicy
	// ChunkRead is the degradation-aware result of reading one chunk:
	// the reconstructed video, its partitions, and the names of any
	// approximate streams that could not be recovered and were served
	// zero-filled.
	ChunkRead = store.ChunkRead
	// ScrubReport is the outcome of one Archive scrub pass over every
	// record of the archive.
	ScrubReport = store.ScrubReport
	// ChunkHealth is one chunk's scrub outcome within a ScrubReport.
	ChunkHealth = store.ChunkHealth
)

// Typed sentinel errors of the archive read path; match with errors.Is.
var (
	// ErrChunkNotFound reports a chunk index outside the archive.
	ErrChunkNotFound = store.ErrChunkNotFound
	// ErrCorruptRecord reports a structurally damaged archive: bad magic,
	// a zero-length or truncated file, or a corrupt chunk record.
	ErrCorruptRecord = store.ErrCorruptRecord
	// ErrArchiveClosed reports a read attempted after ChunkArchive.Close.
	ErrArchiveClosed = store.ErrArchiveClosed
	// ErrReadFailed reports a device-level read failure that persisted
	// after the fault policy's retries (and the mirror, if one is
	// attached) — the failure class that trips the serving layer's
	// circuit breaker, as opposed to ErrCorruptRecord's data damage.
	ErrReadFailed = store.ErrReadFailed
	// ErrArchiveNotFound reports a Catalog request for an archive name not
	// in the catalog; over HTTP it is a 404 with code "archive_not_found".
	ErrArchiveNotFound = serve.ErrArchiveNotFound
	// ErrReadOnly reports a write to a read-only storage backend
	// (NewSnapshotBackend, OpenFileBackend with writable=false).
	ErrReadOnly = store.ErrReadOnly
)

// SequenceSource adapts an in-memory sequence to a ChunkSource. It does not
// reduce memory by itself but runs the same chunked dataflow as a streamed
// input, which is what the bit-identity tests exercise.
func SequenceSource(seq *Sequence) ChunkSource { return chunk.FromSequence(seq) }

// Y4MSource wraps a YUV4MPEG2 stream as a ChunkSource. Frames are decoded
// on demand, so processing an arbitrarily long file holds only the chunks
// currently in flight.
func Y4MSource(r io.Reader, name string) (ChunkSource, error) { return chunk.FromY4M(r, name) }

// OpenArchive indexes a chunked archive for random access. Only the
// stream header and the fixed-size per-chunk records are read — every
// chunk's payload is hopped over, so opening a large archive is O(chunks),
// not O(bytes). The archive reads exclusively through r's positionless
// ReadAt, which makes ReadChunkContext lock-free and safe for any number
// of concurrent readers (os.File and bytes.Reader both qualify). Zero-length
// or truncated inputs return an error wrapping ErrCorruptRecord.
//
// Options attach a FaultPolicy (WithArchivePolicy) for retrying transient
// read errors and a mirror reader (WithMirror) for recovering regions the
// primary cannot serve; both also govern ChunkArchive.Scrub. When r is a
// Backend (or any io.WriterAt) Scrub repairs go through its WriteAt —
// read-only backends report the damage unrepaired — and the caller closes
// it after the archive.
func OpenArchive(r io.ReaderAt, opts ...ArchiveOption) (*ChunkArchive, error) {
	return store.OpenArchiveBackend(r, opts...)
}

// OpenFileBackend opens a file as an archive Backend; writable selects the
// read-write form Scrub repairs need, otherwise writes report ErrReadOnly.
func OpenFileBackend(path string, writable bool) (Backend, error) {
	return store.OpenFileBackend(path, writable)
}

// NewSnapshotBackend wraps data as a sealed read-only Backend; the caller
// must not mutate data afterwards.
func NewSnapshotBackend(data []byte) Backend { return store.NewSnapshotBackend(data) }

// WithArchivePolicy attaches a FaultPolicy to an archive: the index scan,
// every read and every scrub retry and back off as the policy dictates.
// In ArchiveSpec.Options it is also the policy of the tenant's circuit
// breaker; without it the defaults apply.
func WithArchivePolicy(p FaultPolicy) ArchiveOption { return store.WithFaultPolicy(p) }

// WithMirror attaches a second reader holding an identical copy of the
// archive. Regions the primary cannot serve — persistent read errors or
// checksum mismatches after retries — are transparently re-read from the
// mirror, and ChunkArchive.Scrub repairs the primary from it in place.
func WithMirror(r io.ReaderAt) ArchiveOption { return store.WithMirror(r) }

// NewCatalog returns the HTTP serving layer over N named archives (one
// spec serves a single archive): GET /v1/archives (listing),
// /v1/archives/{name} (index), /v1/archives/{name}/chunks/{i} (decoded
// frames as YUV4MPEG2), /v1/archives/{name}/chunks/{i}/meta, /metrics and
// /healthz. Decoded chunks are cached in a sized LRU and cold-chunk decodes
// are coalesced, so a hot chunk is decoded exactly once however many
// clients stampede it. Run it with Catalog.Serve (graceful drain on context
// cancellation) or mount Catalog.Handler under your own http.Server.
//
// Archives open lazily on first request and close again after
// WithIdleTimeout of disuse; all archives share one decoded-chunk cache
// bounded by WithCacheBytes, while fault policies, circuit breakers and
// chunk counters are per archive. Archives can be added and removed at
// runtime (Catalog.Add, Catalog.Remove) — the CLI's serve -archive-dir
// SIGHUP rescan is built on exactly that.
//
// The read path degrades gracefully: a chunk whose approximate streams
// fail verification is still served, zero-filled where damaged, with the
// X-Videoapp-Degraded header naming the lost streams; persistent device
// failures trip a circuit breaker that sheds requests with
// 503 + Retry-After instead of queueing more work on a failing device.
// Configure both through WithArchivePolicy in each ArchiveSpec.Options.
func NewCatalog(specs []ArchiveSpec, opts ...ServeOption) (*Catalog, error) {
	return serve.NewCatalog(specs, opts...)
}

// WithIdleTimeout closes catalog archives unused for d; d <= 0 (the
// default) keeps them open forever.
func WithIdleTimeout(d time.Duration) ServeOption { return serve.WithIdleTimeout(d) }

// WithCacheBytes bounds all decoded state the server keeps: renderings
// and parse records (three quarters and one quarter of n); n <= 0 selects
// the 64 MiB default.
func WithCacheBytes(n int64) ServeOption { return serve.WithCacheBytes(n) }

// WithPrefetch sets the server's sequential readahead depth: it warms up to
// depth chunks ahead of a sequential reader in the background through the
// decoded-chunk cache. <= 0 disables readahead; the default depth is 2.
func WithPrefetch(depth int) ServeOption { return serve.WithPrefetch(depth) }

// WithRequestTimeout bounds one server request end to end, decode
// included; d <= 0 selects the 30s default.
func WithRequestTimeout(d time.Duration) ServeOption { return serve.WithRequestTimeout(d) }

// WithServeWorkers bounds the server's frame-decode parallelism per cold
// chunk; n <= 0 selects GOMAXPROCS.
func WithServeWorkers(n int) ServeOption { return serve.WithWorkers(n) }

// WithServeObserver attaches an observer to the server's own metrics sink;
// it receives the serve-layer events alongside the built-in /metrics
// aggregator.
func WithServeObserver(o Observer) ServeOption { return serve.WithObserver(o) }

// AppendArchive reopens an existing chunked archive for appending more
// chunks (append-on-write: earlier bytes are never rewritten). rw must
// also implement io.ReaderAt (os.File does) for the lock-free index scan;
// ctx governs the verifying read of the archive's last record.
func AppendArchive(ctx context.Context, rw io.ReadWriteSeeker) (*ChunkWriter, error) {
	return store.AppendChunkWriter(ctx, rw)
}

// chunkConfig assembles the streaming engine configuration from the
// pipeline, attaching sys for per-chunk footprint costs.
func (p *Pipeline) chunkConfig(sys *store.System) chunk.Config {
	return chunk.Config{
		Params:       p.params,
		Assignment:   p.assignment,
		System:       sys,
		GOPsPerChunk: p.chunkGOPs,
		Workers:      p.workers,
	}
}

// ProcessStream is ProcessContext over an incrementally fed source: the
// stream is segmented into closed-GOP chunks (WithChunkGOPs), up to
// ⌈Workers/ChunkGOPs⌉ chunks run encode → analyze → partition → footprint
// concurrently, and the results are stitched in stream order with
// backpressure to the source, so raw frames never accumulate beyond
// ⌈Workers/ChunkGOPs⌉ + 2 chunks (cap it with WithWorkers). The
// accumulated Result — encoded bits, analysis, partitions, footprint stats
// — is bit-identical to ProcessContext on the same frames at every chunk
// size and worker count, and supports the same round trips.
//
// Note that the Result itself holds the whole encoded video (that is what
// a Result is); for end-to-end bounded memory use StreamToArchive, which
// writes chunks out as they complete.
func (p *Pipeline) ProcessStream(ctx context.Context, src ChunkSource) (*Result, error) {
	sys, err := p.system()
	if err != nil {
		return nil, err
	}
	var (
		v         *Video
		parts     []FramePartition
		imp, comp [][]float64
		costs     []store.FrameCost
		pixels    int64
	)
	err = chunk.Run(ctx, p.chunkConfig(sys), src, func(c *chunk.Processed) error {
		if v == nil {
			v = &codec.Video{Params: c.Video.Params, W: c.Video.W, H: c.Video.H, FPS: c.Video.FPS}
		}
		// Rebase the chunk-local frame indices and partition rows into the
		// whole-video index space, then append in stream order.
		c.Video.ShiftIndices(c.FirstFrame)
		v.Frames = append(v.Frames, c.Video.Frames...)
		for i := range c.Parts {
			c.Parts[i].Frame += c.FirstFrame
		}
		parts = append(parts, c.Parts...)
		imp = append(imp, c.Importance...)
		comp = append(comp, c.CompImportance...)
		costs = append(costs, c.Costs...)
		pixels += c.Pixels
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Header bits are recomputed on the stitched video: frame indices are
	// exp-Golomb coded, so global-index headers can be larger than the sum
	// of chunk-local ones, and batch identity requires the global form.
	stats := sys.StatsFromCosts(costs, v.HeaderBits()+core.PivotOverheadBits(parts), pixels)
	store.PublishFootprint(obs.From(ctx), stats)
	an := &core.Analysis{Video: v, Importance: imp, CompImportance: comp}
	return &Result{Video: v, Analysis: an, Partitions: parts, Stats: stats, system: sys, workers: p.workers}, nil
}

// StreamToArchive processes src in closed-GOP chunks — several at once, up
// to the WithWorkers budget — and appends each chunk to w in stream order
// as a chunked archive, keeping memory bounded for arbitrarily long
// streams: at most ⌈Workers/ChunkGOPs⌉ + 2 chunks exist at any time (a
// chunk's raw frames only until it is encoded), nothing retains a chunk
// once it is written, and the archive accumulates on w, not in memory. The
// bytes written are identical at every worker count. It returns the
// archive layout and the aggregate storage footprint (header bits
// accounted in the archive's chunk-local form).
func (p *Pipeline) StreamToArchive(ctx context.Context, src ChunkSource, w io.Writer) (ArchiveMeta, StorageStats, error) {
	sys, err := p.system()
	if err != nil {
		return ArchiveMeta{}, StorageStats{}, err
	}
	var (
		cw         *ChunkWriter
		meta       ArchiveMeta
		costs      []store.FrameCost
		headerBits int64
		pixels     int64
	)
	gops := max(p.chunkGOPs, 1)
	err = chunk.Run(ctx, p.chunkConfig(sys), src, func(c *chunk.Processed) error {
		if cw == nil {
			meta = ArchiveMeta{W: c.Video.W, H: c.Video.H, FPS: c.Video.FPS, GOPSize: p.params.GOPSize, GOPsPerChunk: gops}
			var err error
			if cw, err = store.NewChunkWriter(w, meta); err != nil {
				return err
			}
		}
		if err := cw.Append(c.Video, c.Parts, c.FirstFrame); err != nil {
			return err
		}
		costs = append(costs, c.Costs...)
		headerBits += c.HeaderBits
		pixels += c.Pixels
		return nil
	})
	if err != nil {
		return ArchiveMeta{}, StorageStats{}, err
	}
	stats := sys.StatsFromCosts(costs, headerBits, pixels)
	store.PublishFootprint(obs.From(ctx), stats)
	return meta, stats, nil
}

// RoundTripChunk simulates the approximate storage round trip of a single
// archived chunk — typically one ReadChunkContext result — and decodes it
// without touching the rest of the archive. firstFrame is the chunk's
// position in the whole video (ChunkInfo.FirstFrame): the injected error
// streams are drawn per global frame, so the decoded frames are
// bit-identical to the same frames of a whole-video StoreRoundTripContext
// with the same seed.
func (p *Pipeline) RoundTripChunk(ctx context.Context, v *Video, parts []FramePartition, firstFrame int, seed int64) (*Sequence, int, error) {
	if firstFrame < 0 {
		return nil, 0, fmt.Errorf("videoapp: negative first frame %d", firstFrame)
	}
	sys, err := p.system()
	if err != nil {
		return nil, 0, err
	}
	return roundTrip(ctx, sys, v, parts, firstFrame, seed, p.workers)
}
