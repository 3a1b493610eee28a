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
// the decoded-chunk cache is shared. A tenant's policy is the one its
// archive opens under — a store.WithFaultPolicy in ArchiveSpec.Options, else
// the defaults — and its breaker takes its threshold and cooldown from that
// opened archive, so the retries of a read and the breaker that judges its
// failures always come from the same policy.
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
//     across every archive of a catalog; a quarter of the same byte budget
//     keeps, per chunk, the record of what the entropy decoder parsed, so a
//     chunk whose rendering was evicted is read and verified again on its
//     next miss but only frames whose bytes changed are parsed again. Each
//     tier is one strict LRU under one mutex. Both live off the Go heap, in
//     recycled memory mappings of internal/offheap that every response pins
//     while it writes a rendering and every decode while it replays a
//     chunk's records, so the cache costs its budget in memory and not
//     twice that in garbage-collector headroom; a cold chunk is decoded
//     straight into its response buffer;
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
// Every request runs under a context with the configured timeout, which
// is also the deadline of the response's writes, and is cancelled when the
// client hangs up; the decode path checks the context at frame boundaries. The server publishes its own observability through
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

	"videoapp/internal/obs"
	"videoapp/internal/store"
)

// ErrArchiveNotFound reports a request for a catalog archive name that is
// not (or no longer) in the catalog. Match with errors.Is; over HTTP it is
// a 404 with code "archive_not_found".
var ErrArchiveNotFound = errors.New("archive not found")

// The documented defaults: what NewCatalog with no options runs under.
const (
	defaultCacheBytes     = 64 << 20
	defaultPrefetchDepth  = 2
	defaultRequestTimeout = 30 * time.Second
	// drainTimeout bounds connection draining during Serve's shutdown.
	drainTimeout = 10 * time.Second
)

// config is the catalog's one resolved configuration: NewCatalog seeds it
// with the defaults and each option overwrites its field with a resolved
// value, so nothing downstream interprets a sentinel.
type config struct {
	cacheBytes     int64
	prefetchDepth  int // 0: readahead off
	workers        int // <= 0: GOMAXPROCS, the decoder's own convention
	requestTimeout time.Duration
	idleTimeout    time.Duration // <= 0: archives stay open
	observer       obs.Observer  // nil: the metrics aggregator alone
}

// Option configures a Catalog at construction, applied in argument order.
type Option func(*config)

// WithCacheBytes bounds all decoded state the catalog keeps, shared by every
// archive: renderings and parse records. Three quarters go to rendered chunks
// (one entry costs roughly frames × 1.5 × W × H bytes), one quarter to the
// parse records of chunks read before (about a sixteenth of that per chunk;
// see syntaxShare). <= 0 selects the 64 MiB default.
func WithCacheBytes(n int64) Option {
	return func(c *config) {
		if n <= 0 {
			n = defaultCacheBytes
		}
		c.cacheBytes = n
	}
}

// WithPrefetch sets the sequential readahead depth: the server warms up to
// depth chunks ahead of a sequential reader through the shared cache, and
// nothing behind a random read. <= 0 disables prefetching; the default is 2.
func WithPrefetch(depth int) Option {
	return func(c *config) { c.prefetchDepth = max(depth, 0) }
}

// WithWorkers bounds the decoder's frame parallelism per cold chunk;
// <= 0 selects GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithRequestTimeout bounds one request end to end, decode and the writing
// of the response included; <= 0 selects 30 seconds. Requests that expire
// before their response starts answer 503; a response still being written
// then is cut off.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) {
		if d <= 0 {
			d = defaultRequestTimeout
		}
		c.requestTimeout = d
	}
}

// WithIdleTimeout closes catalog archives that have gone unused this long;
// <= 0 (the default) keeps them open forever. The next request reopens the
// archive transparently.
func WithIdleTimeout(d time.Duration) Option {
	return func(c *config) { c.idleTimeout = d }
}

// WithObserver attaches an observer that receives the serve-layer events
// alongside the server's own metrics aggregator.
func WithObserver(o obs.Observer) Option {
	return func(c *config) { c.observer = o }
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

// Unwrap returns the wrapped writer, through which http.ResponseController
// reaches the connection (its write deadline).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

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
