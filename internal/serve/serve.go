// Package serve is the concurrent read path of the archive layer: an HTTP
// chunk server that ships decoded chunk frames, per-chunk metadata and
// archive indexes from VACS containers to many simultaneous clients.
//
// There is one server type, the Catalog: N named archives behind one
// handler — the multi-tenant storage node of the datacenter deployment the
// paper argues for (§1, §7). A single archive is a catalog of one spec.
// Tenants are declared as ArchiveSpecs and opened lazily on first request;
// an idle timeout closes archives nobody is reading. Each tenant gets its
// own circuit breaker and fault policy, and its own labeled counters, while
// the decoded-chunk cache is shared.
//
// The paper's premise is that approximately stored video is read far more
// often than it is written, so the serving layer is built around four
// read-side mechanisms:
//
//   - archives are accessed through the store.Backend seam
//     (store.OpenArchiveBackend), so concurrent chunk reads share no cursor
//     and take no lock, and any storage medium — file, memory region,
//     sealed snapshot, or a faultio-decorated composition — serves the
//     same way;
//   - decoded chunks are rendered once into a cost-bounded LRU cache
//     (internal/cache), sized in bytes of rendered y4m output and shared
//     across every archive of a catalog. The cache is lock-sharded
//     (WithCacheShards): keys hash to independent shards, each with its
//     own mutex, LRU order, and slice of the byte budget, so hot hits on
//     different chunks never contend on one mutex;
//   - cold-chunk decodes are coalesced (singleflight): a stampede of N
//     clients on one uncached chunk performs a single archive read + decode
//     and every client shares the bytes;
//   - a sequential readahead prefetcher (WithPrefetch) rides the access
//     pattern video playback produces: it warms up to k chunks ahead of a
//     sequential reader in the background through the same singleflight
//     cache namespace, so steady sequential readers find the next chunk
//     already decoded. How far it reads ahead of a request follows the
//     evidence that the requester is sequential — the full k when the
//     response consumed a readahead load, one chunk at the start of a
//     stream or when the previous chunk was just touched, nothing for a
//     random read. Prefetch never fires through an open circuit breaker or
//     on a removed archive, and keeps no table of its own: each load it runs
//     counts serve_prefetch_issued, and the cached chunk carries the one
//     bit that settles it — serve_prefetch_useful when a request hits it
//     first, serve_prefetch_wasted when it fails, is evicted or is purged
//     unserved, neither when a request coalesced onto the load. The
//     accounting is exact; Catalog.Close ends readahead for good.
//
// Every request runs under a context with the configured timeout and is
// cancelled when the client hangs up; the decode path checks the context
// at frame boundaries. The server publishes its own observability through
// internal/obs (request counts, cache hit rate, decode latency, in-flight
// gauge, open-archive gauge, per-archive chunk counters) and renders a
// snapshot on /metrics. Shutdown drains in-flight connections before
// returning. Errors are JSON objects: {"error": ..., "code": ...}.
//
// # Fault tolerance
//
// The server rides the store layer's fault-tolerant read path and adds two
// availability mechanisms of its own:
//
//   - graceful degradation: when a chunk's approximate streams fail
//     verification after the policy's retries (and the mirror, when one is
//     configured), the server ships the precise-class reconstruction —
//     damaged streams zero-filled — instead of an error. Such responses
//     carry the X-Videoapp-Degraded header naming the lost schemes and are
//     counted in serve_chunk_degraded. Only damage to the precisely-stored
//     region is a hard failure, and even that answers 503 + Retry-After
//     (scrubbing can repair it), never a 5xx dead end.
//   - per-archive circuit breakers: consecutive hard read failures
//     (ErrReadFailed — the device, not the data) open that archive's
//     breaker for the policy's cooldown, during which its chunk requests
//     are shed immediately with 503 + Retry-After instead of hammering a
//     failing device. Shed requests are counted in serve_breaker_shed and
//     the serve_breaker_open gauge is 1 while shedding; other archives of
//     the catalog are unaffected. Any successful read closes the breaker.
//
// # Endpoints
//
//	GET /healthz                                  liveness probe, "ok"
//	GET /v1/archives                              catalog listing (JSON)
//	GET /v1/archives/{name}                       archive index: meta + per-chunk records (JSON)
//	GET /v1/archives/{name}/chunks/{index}        decoded chunk frames as YUV4MPEG2
//	GET /v1/archives/{name}/chunks/{index}/meta   one chunk's record (JSON)
//	GET /metrics                                  obs snapshot (text; ?format=json for JSON)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"videoapp/internal/cache"
	"videoapp/internal/obs"
	"videoapp/internal/store"
)

// ErrArchiveNotFound reports a request for a catalog archive name that is
// not (or no longer) in the catalog. Match with errors.Is; over HTTP it is
// a 404 with code "archive_not_found".
var ErrArchiveNotFound = errors.New("archive not found")

// Options is the catalog's resolved configuration. Construct catalogs with
// NewCatalog and the With* functional options; Options survives as a plain
// struct so tests can state a whole configuration at once.
type Options struct {
	// CacheBytes bounds the decoded-chunk cache by rendered output size;
	// <= 0 selects 64 MiB. The cache holds y4m-rendered chunks, so one
	// entry costs roughly frames × 1.5 × W × H bytes. A catalog's cache is
	// shared across all of its archives.
	CacheBytes int64
	// CacheShards is the decoded-chunk cache's lock-shard count, rounded up
	// to a power of two. <= 0 selects cache.DefaultShards() (max(8,
	// GOMAXPROCS) rounded up); 1 is a single shard — one global mutex and a
	// strict global LRU order.
	CacheShards int
	// PrefetchDepth is how far the readahead prefetcher warms the shared
	// cache: up to depth chunks ahead of a sequential reader. 0 selects the
	// default of 2; negative disables prefetching.
	PrefetchDepth int
	// Workers bounds the decoder's frame parallelism per cold chunk;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// RequestTimeout bounds one request end to end, decode included;
	// <= 0 selects 30 seconds. Expired requests answer 503.
	RequestTimeout time.Duration
	// DrainTimeout bounds connection draining during Shutdown; <= 0
	// selects 10 seconds.
	DrainTimeout time.Duration
	// IdleTimeout closes a catalog archive after it has gone unused this
	// long; <= 0 keeps archives open forever. The next request reopens the
	// archive transparently.
	IdleTimeout time.Duration
	// Observer, when non-nil, receives the serve-layer events alongside
	// the server's own metrics aggregator.
	Observer obs.Observer
	// FaultPolicy tunes the read path's retries and the circuit breaker
	// for every archive that does not carry its own ArchiveSpec.FaultPolicy.
	// It only takes effect through WithFaultPolicy, which also threads it
	// under every archive read of this server, overriding the archive's
	// own policy.
	FaultPolicy store.FaultPolicy
}

// withDefaults resolves zero fields to their documented defaults.
func (o Options) withDefaults() Options {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.CacheShards <= 0 {
		o.CacheShards = cache.DefaultShards()
	}
	if o.PrefetchDepth == 0 {
		o.PrefetchDepth = 2
	} else if o.PrefetchDepth < 0 {
		o.PrefetchDepth = 0 // resolved: 0 means off from here on
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	return o
}

// config is the mutable state the functional options assemble.
type config struct {
	opts      Options
	policySet bool
}

// Option configures a Catalog at construction, applied in argument order.
type Option func(*config)

// WithCacheBytes bounds the decoded-chunk cache by rendered output size;
// <= 0 selects the 64 MiB default.
func WithCacheBytes(n int64) Option {
	return func(c *config) { c.opts.CacheBytes = n }
}

// WithCacheShards sets the decoded-chunk cache's lock-shard count (rounded
// up to a power of two). n <= 0 (the default) selects max(8, GOMAXPROCS)
// rounded up to a power of two; 1 is a single shard — one global mutex and
// a strict global LRU order at the cost of hot-path contention.
func WithCacheShards(n int) Option {
	return func(c *config) { c.opts.CacheShards = n }
}

// WithPrefetch sets the sequential readahead depth: the server warms up to
// depth chunks ahead of a sequential reader through the shared cache, and
// nothing behind a random read. <= 0 disables prefetching; the default is 2.
func WithPrefetch(depth int) Option {
	return func(c *config) {
		if depth <= 0 {
			depth = -1 // resolved to "off" by withDefaults
		}
		c.opts.PrefetchDepth = depth
	}
}

// WithWorkers bounds the decoder's frame parallelism per cold chunk;
// <= 0 selects GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.opts.Workers = n }
}

// WithRequestTimeout bounds one request end to end, decode included;
// <= 0 selects 30 seconds.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.opts.RequestTimeout = d }
}

// WithDrainTimeout bounds connection draining during shutdown; <= 0
// selects 10 seconds.
func WithDrainTimeout(d time.Duration) Option {
	return func(c *config) { c.opts.DrainTimeout = d }
}

// WithIdleTimeout closes catalog archives that have gone unused this long;
// <= 0 (the default) keeps them open forever.
func WithIdleTimeout(d time.Duration) Option {
	return func(c *config) { c.opts.IdleTimeout = d }
}

// WithObserver attaches an observer that receives the serve-layer events
// alongside the server's own metrics aggregator.
func WithObserver(o obs.Observer) Option {
	return func(c *config) { c.opts.Observer = o }
}

// WithFaultPolicy sets the fault policy the server reads under: retry
// count and backoff for archive reads, checksum verification, and the
// circuit breaker's threshold and cooldown. The policy is threaded through
// the request context, so it overrides the archive's own policy for reads
// this server issues. A per-archive ArchiveSpec.FaultPolicy overrides it
// for that archive.
func WithFaultPolicy(p store.FaultPolicy) Option {
	return func(c *config) {
		c.opts.FaultPolicy = p
		c.policySet = true
	}
}

// statusWriter records the status code written to a response.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// errorBody is the JSON shape of every error response.
type errorBody struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Code is the stable machine-readable error class.
	Code string `json:"code"`
}

// writeJSONError emits one JSON error object with the given status.
func writeJSONError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: msg, Code: code})
}

// retryAfterError decorates a read-path error with the owning archive's
// breaker cooldown, so writeError can emit a tenant-accurate Retry-After.
type retryAfterError struct {
	err     error
	seconds int
}

func (e retryAfterError) Error() string { return e.err.Error() }
func (e retryAfterError) Unwrap() error { return e.err }

// writeError maps the archive layer's typed errors and context outcomes to
// HTTP statuses with JSON bodies. Unreadable data never dead-ends in a 500:
// corruption is repairable (scrub, mirror) and device failure is transient
// by definition, so both answer 503 with a Retry-After hint.
func writeError(w *statusWriter, err error) {
	status := http.StatusInternalServerError
	code := "internal"
	retryAfter := 0
	switch {
	case errors.Is(err, store.ErrChunkNotFound):
		status, code = http.StatusNotFound, "chunk_not_found"
	case errors.Is(err, ErrArchiveNotFound):
		status, code = http.StatusNotFound, "archive_not_found"
	case errors.Is(err, store.ErrArchiveClosed):
		status, code = http.StatusServiceUnavailable, "archive_closed"
	case errors.Is(err, store.ErrCorruptRecord):
		status, code = http.StatusServiceUnavailable, "corrupt_record"
		retryAfter = retryAfterSecondsOf(err)
	case errors.Is(err, store.ErrReadFailed):
		status, code = http.StatusServiceUnavailable, "read_failed"
		retryAfter = retryAfterSecondsOf(err)
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusServiceUnavailable, "timeout"
	case errors.Is(err, context.Canceled):
		// The client hung up; nothing useful can be written.
		return
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeJSONError(w, status, code, err.Error())
}

// retryAfterSecondsOf extracts the tenant breaker's cooldown hint riding
// err, defaulting to 1 second when none is attached.
func retryAfterSecondsOf(err error) int {
	var ra retryAfterError
	if errors.As(err, &ra) && ra.seconds > 0 {
		return ra.seconds
	}
	return 1
}

// chunkIndex parses the {index} path value; malformed or out-of-range
// values surface as ErrChunkNotFound so they answer 404.
func chunkIndex(r *http.Request) (int, error) {
	i, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		return 0, fmt.Errorf("%w: bad chunk index %q", store.ErrChunkNotFound, r.PathValue("index"))
	}
	return i, nil
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// seqSize estimates the rendered y4m size of frames 4:2:0 pictures, for
// pre-sizing the render buffer.
func seqSize(frames, w, h int) int {
	return frames*(w*h*3/2+8) + 128
}
