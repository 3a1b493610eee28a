// Package obs is the zero-dependency observability layer of the pipeline:
// an Observer interface that every stage reports to, a no-op default that
// costs nothing on the hot path, a thread-safe aggregating Metrics
// implementation, and a streaming JSON-lines trace sink.
//
// Observers are passive: stages publish events (stage spans, per-frame
// progress, named counters and gauges) and never read anything back, so an
// attached observer can not perturb results — parallel stages stay
// bit-identical to serial with any observer at any worker count. Counter
// and gauge values are accumulated per (name, label) with order-independent
// reductions, so aggregated metrics are also identical at every worker
// count; only wall-clock figures vary between runs.
//
// The no-op path is allocation-free: stage names and labels are existing
// strings (package constants, scheme names, frame-type names), all other
// arguments are scalars, and Noop is a zero-size type, so calls through the
// interface never escape anything to the heap. This is guarded by
// BenchmarkNoopFramePath and TestNoopPathDoesNotAllocate.
//
// Observers reach the internal packages through the context: the pipeline
// attaches its observer with With, and every *Context stage entry point
// recovers it with From (returning Noop when none is attached). This keeps
// the stage signatures stable while still letting direct users of the
// subsystem APIs opt in.
package obs

import (
	"context"
	"time"
)

// Stage names published by the pipeline. Every stage span, FrameDone event
// and stage-scoped counter uses one of these.
const (
	StageEncode    = "encode"
	StageAnalyze   = "analyze"
	StagePartition = "partition"
	StageFootprint = "footprint"
	StageInject    = "inject"
	StageDecode    = "decode"
	StageMeasure   = "measure"
	// StageServeChunk spans one cold chunk materialization in the serve
	// layer: archive read, decode, and y4m rendering. Cache hits publish no
	// span, so the stage's wall time is pure decode-path latency.
	StageServeChunk = "serve_chunk"
	// StageScrub spans one Archive.Scrub pass: every record read,
	// verified, and (when a mirror is configured) repaired.
	StageScrub = "scrub"
)

// Counter and gauge names published by the instrumented stages. Labels are
// given per name.
const (
	// CtrEncodeFrames counts encoded frames, labelled by frame type (I/P/B).
	CtrEncodeFrames = "encode_frames"
	// CtrDecodeFrames counts decoded frames, labelled by frame type.
	CtrDecodeFrames = "decode_frames"
	// CtrFramesReplayed counts the decoded frames, labelled by frame type,
	// that skipped the entropy decoder: bit-identical copies of a frame
	// already parsed once (codec.EncodedFrame.ShareSyntax) — a stored frame
	// that kept zero flips, a served chunk read again — reconstructed from
	// the parse on record. decode_frames counts them too.
	CtrFramesReplayed = "codec_frames_replayed"
	// CtrResync counts entropy-stream desync events — slices whose CABAC or
	// CAVLC reader lost sync and rode garbage until the next resync point —
	// labelled by the entropy coder name.
	CtrResync = "codec_resync"
	// CtrResidualFlips counts post-correction bit errors that survive to
	// the reader, labelled by ECC scheme.
	CtrResidualFlips = "store_residual_flips"
	// CtrChunks counts closed-GOP chunks completed by the streaming
	// pipeline.
	CtrChunks = "stream_chunks"
	// CtrPayloadBits counts stored payload bits, labelled by ECC scheme.
	CtrPayloadBits = "footprint_payload_bits"
	// CtrHeaderBits counts precisely-stored header and pivot-table bits.
	CtrHeaderBits = "footprint_header_bits"
	// GaugeCells is the substrate cell count of the last footprint.
	GaugeCells = "footprint_cells"
	// GaugeCellsPerPixel is the paper's density metric (Figure 11 x-axis).
	GaugeCellsPerPixel = "footprint_cells_per_pixel"
	// CtrServeRequests counts HTTP requests accepted by the chunk server,
	// labelled by route name (archive, chunk, chunk_meta, metrics, healthz).
	CtrServeRequests = "serve_requests"
	// CtrServeErrors counts requests that finished with a non-2xx status,
	// labelled by route name.
	CtrServeErrors = "serve_errors"
	// CtrServeCacheHits counts chunk requests answered from the decoded
	// cache.
	CtrServeCacheHits = "serve_cache_hits"
	// CtrServeCacheMisses counts chunk requests that had to wait on a
	// decode (coalesced waiters included).
	CtrServeCacheMisses = "serve_cache_misses"
	// CtrServeDecodes counts actual chunk decode executions; under request
	// coalescing this stays at one per cold chunk however many clients
	// stampede it.
	CtrServeDecodes = "serve_chunk_decodes"
	// CtrServeReplays counts, per archive, the chunk decode executions in
	// which every frame was replayed from the parse-record tier: cold misses
	// that read and verified the chunk but never ran the entropy decoder.
	CtrServeReplays = "serve_chunk_replays"
	// CtrServeDegraded counts chunk responses served in degraded form —
	// one or more approximate streams failed verification after retries
	// and were replaced by zeroes, so the client got the precise-class
	// reconstruction instead of a 500. Every such response also carries
	// the X-Videoapp-Degraded header.
	CtrServeDegraded = "serve_chunk_degraded"
	// CtrServePrefetchIssued counts readahead loads the prefetcher
	// actually started (scheduled, found absent, and issued a decode),
	// labeled by archive.
	CtrServePrefetchIssued = "serve_prefetch_issued"
	// CtrServePrefetchUseful counts prefetched chunks later served to a
	// client from the cache — readahead that hid a decode.
	CtrServePrefetchUseful = "serve_prefetch_useful"
	// CtrServePrefetchWasted counts prefetched chunks that never reached a
	// client: the load failed, or the entry was evicted or purged before
	// any request touched it.
	CtrServePrefetchWasted = "serve_prefetch_wasted"
	// CtrServeShed counts chunk requests rejected by the open circuit
	// breaker with 503 + Retry-After.
	CtrServeShed = "serve_breaker_shed"
	// CtrReadRetries counts archive read attempts retried after a
	// transient failure or checksum mismatch.
	CtrReadRetries = "store_read_retries"
	// CtrCRCFailures counts archive region reads whose CRC did not match
	// the record header, labelled by region ("precise", "pivots", or the
	// stream's scheme name).
	CtrCRCFailures = "store_crc_failures"
	// CtrDegradedStreams counts approximate streams zero-filled after
	// exhausting retries (and the mirror, when configured), labelled by
	// scheme name.
	CtrDegradedStreams = "store_degraded_streams"
	// CtrMirrorReads counts archive regions recovered from the mirror
	// reader after the primary failed.
	CtrMirrorReads = "store_mirror_reads"
	// CtrScrubRepairs counts archive regions rewritten in place by Scrub
	// from a verified mirror copy.
	CtrScrubRepairs = "store_scrub_repairs"
	// GaugeServeInFlight is the number of requests currently being served.
	GaugeServeInFlight = "serve_in_flight"
	// GaugeServeBreakerOpen is 1 while the chunk server's circuit breaker
	// is open (shedding load) and 0 while it is closed.
	GaugeServeBreakerOpen = "serve_breaker_open"
	// GaugeServeCacheHitRate is the decoded-chunk cache hit rate in [0,1].
	GaugeServeCacheHitRate = "serve_cache_hit_rate"
	// GaugeServeCacheBytes is the resident cost of the decoded-chunk cache.
	GaugeServeCacheBytes = "serve_cache_bytes"
	// GaugeServeSyntaxCacheHitRate is the share, in [0,1], of cold misses
	// that found their chunk's parse records resident.
	GaugeServeSyntaxCacheHitRate = "serve_syntax_cache_hit_rate"
	// GaugeServeSyntaxCacheBytes is the resident cost of the parse-record
	// tier, charged against the same budget as serve_cache_bytes.
	GaugeServeSyntaxCacheBytes = "serve_syntax_cache_bytes"
	// GaugeServeRenderMappedBytes is the bytes the rendered tier's buffer
	// pool holds mapped off the Go heap: resident renderings, renderings
	// still being written after they left the cache, and idle buffers.
	GaugeServeRenderMappedBytes = "serve_render_mapped_bytes"
	// GaugeServeRenderPinnedBytes is the bytes of rendered-tier buffers a
	// response is writing right now.
	GaugeServeRenderPinnedBytes = "serve_render_pinned_bytes"
	// GaugeServeRenderIdleBytes is the bytes of rendered-tier buffers
	// waiting in the pool for reuse.
	GaugeServeRenderIdleBytes = "serve_render_idle_bytes"
	// GaugeServeSyntaxMappedBytes is the bytes the parse-record tier's
	// buffer pool holds mapped off the Go heap: resident records, records
	// still being replayed after they left the cache, and idle buffers.
	GaugeServeSyntaxMappedBytes = "serve_syntax_mapped_bytes"
	// GaugeServeSyntaxPinnedBytes is the bytes of parse-record buffers a
	// decode is replaying from right now.
	GaugeServeSyntaxPinnedBytes = "serve_syntax_pinned_bytes"
	// GaugeGoHeapInuseBytes is the Go heap's in-use bytes
	// (runtime.MemStats.HeapInuse), sampled with the serve cache gauges.
	GaugeGoHeapInuseBytes = "go_heap_inuse_bytes"
	// GaugeServePrefetchInFlight is the number of readahead loads the
	// prefetcher is executing right now.
	GaugeServePrefetchInFlight = "serve_prefetch_in_flight"
	// GaugeCatalogOpenArchives is the number of archives a serving catalog
	// currently holds open (lazily-opened tenants that have not been
	// idle-closed, plus any statically attached archive).
	GaugeCatalogOpenArchives = "serve_catalog_open_archives"
)

// Observer receives pipeline instrumentation events. Implementations must
// be safe for concurrent use: parallel stages publish FrameDone and Counter
// events from multiple worker goroutines.
type Observer interface {
	// StageStart marks the beginning of a pipeline stage.
	StageStart(stage string)
	// StageEnd marks the end of a pipeline stage with its wall time.
	StageEnd(stage string, wall time.Duration)
	// FrameDone reports that frames units of per-frame work finished in a
	// stage. Parallel stages call it out of frame order.
	FrameDone(stage string, frames int)
	// Counter adds delta to the counter identified by (name, label); label
	// is "" for unlabelled counters.
	Counter(name, label string, delta int64)
	// Gauge sets the gauge identified by (name, label) to v.
	Gauge(name, label string, v float64)
}

// Noop is the default observer: every method is an empty, allocation-free
// no-op. The zero value is ready to use and requires no synchronization.
type Noop struct{}

// StageStart implements Observer.
func (Noop) StageStart(string) {}

// StageEnd implements Observer.
func (Noop) StageEnd(string, time.Duration) {}

// FrameDone implements Observer.
func (Noop) FrameDone(string, int) {}

// Counter implements Observer.
func (Noop) Counter(string, string, int64) {}

// Gauge implements Observer.
func (Noop) Gauge(string, string, float64) {}

// multi fans every event out to several observers in order.
type multi []Observer

func (m multi) StageStart(stage string) {
	for _, o := range m {
		o.StageStart(stage)
	}
}

func (m multi) StageEnd(stage string, wall time.Duration) {
	for _, o := range m {
		o.StageEnd(stage, wall)
	}
}

func (m multi) FrameDone(stage string, frames int) {
	for _, o := range m {
		o.FrameDone(stage, frames)
	}
}

func (m multi) Counter(name, label string, delta int64) {
	for _, o := range m {
		o.Counter(name, label, delta)
	}
}

func (m multi) Gauge(name, label string, v float64) {
	for _, o := range m {
		o.Gauge(name, label, v)
	}
}

// Multi combines observers into one that fans every event out in argument
// order. Nil and Noop entries are dropped; with no live entries Multi
// returns Noop, and a single live entry is returned unwrapped.
func Multi(obs ...Observer) Observer {
	live := make(multi, 0, len(obs))
	for _, o := range obs {
		if o == nil {
			continue
		}
		if _, isNoop := o.(Noop); isNoop {
			continue
		}
		live = append(live, o)
	}
	switch len(live) {
	case 0:
		return Noop{}
	case 1:
		return live[0]
	}
	return live
}

// SpanTimer is an in-flight stage span started by StartSpan. It is a plain
// value, so starting and ending a span never allocates.
type SpanTimer struct {
	o     Observer
	stage string
	t0    time.Time
}

// StartSpan publishes StageStart and returns a timer whose End publishes
// StageEnd with the elapsed wall time; typically `defer StartSpan(o,
// stage).End()` around a stage body.
func StartSpan(o Observer, stage string) SpanTimer {
	o.StageStart(stage)
	return SpanTimer{o: o, stage: stage, t0: time.Now()}
}

// End publishes the span's StageEnd event.
func (s SpanTimer) End() { s.o.StageEnd(s.stage, time.Since(s.t0)) }

// ctxKey keys the observer attached to a context.
type ctxKey struct{}

// With returns a context carrying o; every *Context stage entry point
// reports to it. Attaching nil or Noop returns ctx unchanged.
func With(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	if _, isNoop := o.(Noop); isNoop {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// From returns the observer attached to ctx, or Noop when none is. The
// lookup and the Noop fallback are allocation-free.
func From(ctx context.Context) Observer {
	if o, ok := ctx.Value(ctxKey{}).(Observer); ok {
		return o
	}
	return Noop{}
}
