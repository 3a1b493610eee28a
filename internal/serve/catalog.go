package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videoapp/internal/cache"
	"videoapp/internal/codec"
	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/offheap"
	"videoapp/internal/store"
	"videoapp/internal/y4m"
)

// ArchiveSpec declares one catalog tenant: a name routable under
// /v1/archives/{name}/... and a way to open its storage. The backend is
// opened lazily on the first request and may be closed again after
// WithIdleTimeout of disuse; Open must therefore be callable any
// number of times and return a fresh backend each time.
type ArchiveSpec struct {
	// Name routes the archive; it must be non-empty and contain no '/'.
	Name string
	// Open produces the archive's storage backend: a file, a memory
	// region, a snapshot, or any of those behind a faultio decorator. The
	// catalog owns the returned backend and closes it on idle-close,
	// Remove, or catalog shutdown.
	Open func() (store.Backend, error)
	// Options are applied when the archive is opened over the backend
	// (store.WithMirror, store.WithFaultPolicy). The fault policy the archive
	// opens under — the defaults without a store.WithFaultPolicy — governs
	// its read retries and the tenant's circuit breaker both.
	Options []store.ArchiveOption
}

// Catalog serves N named archives to many concurrent clients: the
// multi-tenant storage node, and with a single spec the single-archive
// server. Construct with NewCatalog; all methods are safe for concurrent
// use. Tenants share one decoded-chunk cache (global budget, global LRU) and
// one metrics aggregator; each tenant has its own circuit breaker, fault
// policy, and labeled counters.
type Catalog struct {
	cfg   config
	cache *cache.Cache[cache.Keyed[int], chunkPayload]
	// render supplies the rendered tier's buffers, off the Go heap (see
	// chunkPayload); the cache's hooks keep their reference counts.
	render *offheap.Pool
	// syntax is the small second tier under the same keys and the same
	// budget (syntaxShare): per chunk, the parse records of its frames. A
	// cold miss whose rendering was evicted still reads and verifies the
	// chunk, but frames whose bytes are the ones on record skip the entropy
	// decoder (codec.EncodedFrame.ShareSyntax). The records' bytes live off
	// the Go heap too, in buffers of records (see chunkRecords).
	syntax   *cache.Cache[cache.Keyed[int], chunkRecords]
	records  *offheap.Pool
	prefetch *prefetcher // nil when readahead is disabled
	metrics  *obs.Metrics
	observer obs.Observer
	inFlight atomic.Int64
	mux      *http.ServeMux

	// tenants maps name → *tenant. Membership takes no lock: the only
	// mutexes the catalog declares are each tenant's t.mu and, beneath it,
	// the leaves gaugeMu and heapMu, so there is no pair of catalog locks to
	// order.
	tenants sync.Map

	open    atomic.Int64  // archives currently open, mirrored to the gauge
	gaugeMu sync.Mutex    // leaf: keeps open-gauge publishes in delta order; taken under t.mu by the open and close paths
	gens    atomic.Uint64 // catalog-global open generation; names cache spaces

	// cacheGaugeTick counts chunk responses to rate-limit cache-gauge
	// refreshes from that path: gauges are point-in-time samples, so
	// refreshing them on every request only adds two global metrics-mutex
	// writes to the hot path. The metrics endpoint still refreshes
	// unconditionally before snapshotting, so /metrics is always exact.
	cacheGaugeTick atomic.Uint64

	// heapSamples are the runtime/metrics whose sum is runtime.MemStats'
	// HeapInuse, reused under the leaf heapMu so a gauge refresh allocates
	// nothing; reading them does not stop the world as ReadMemStats does.
	heapMu      sync.Mutex
	heapSamples [2]metrics.Sample
}

// syntaxShare is the parse-record tier's part of the cache budget: a
// quarter. A chunk's records are about 1/16 the size of its rendering and
// save about half the work of producing it, so per byte a record is worth
// roughly eight renderings; a quarter of the budget holds the records of a
// working set four times what the whole budget holds rendered, and past that
// the bytes do more good as renderings. The tiers do not share one LRU
// because recency would then be the only currency: every 507 KB rendering
// admitted would push out sixteen records that are cheaper to keep than it is.
const syntaxShare = 4

// idleShare is the part of a tier's budget its buffer pool may keep idle for
// reuse: a sixteenth. A cold miss usually evicts one entry as it lands and
// the next cold miss reuses that mapping, so a few buffers of room serve the
// steady state; more would only sit mapped.
const idleShare = 16

// cacheGaugeEvery is how many chunk responses pass between chunk-path
// refreshes of the cache gauges (a power of two, tested with a mask).
const cacheGaugeEvery = 64

// chunkPayload is one cached chunk response: the rendered y4m bytes plus
// the degradation verdict of the read that produced them, so cache hits
// replay the same X-Videoapp-Degraded header as the original response.
//
// The bytes live in an off-heap buffer of the catalog's pool (DESIGN
// "The serve cache lives off the GC heap"). The load's reference becomes the
// cache's, which the removal hook releases; every caller GetOrLoad hands the
// payload to holds a pin, taken by the pin hook inside the cache's critical
// section, and unpins when done with the bytes.
type chunkPayload struct {
	buf      *offheap.Buf
	degraded []string
	// prefetched is all of readahead's bookkeeping: nil for a chunk a
	// foreground request loaded, true from the readahead load until the
	// chunk's first use, false after. A pointer, because the cache hands out
	// copies of the payload that must share the one bit.
	prefetched *atomic.Bool
}

// chunkRecords is one chunk's entry in the record tier: the parse records of
// its frames, their bytes packed into one buffer of the catalog's records
// pool — one per chunk, not per frame, since a frame's record is about 5 KB
// and page rounding would waste up to 4 KB of each. The zero value is the
// placeholder a chunk's first lookup leaves, holding nothing.
//
// The buffer follows the rendered tier's pin/release invariant: the cache
// owns it from Replace to the removal hook's release, and every decode the
// tier hands the entry to holds a pin, taken by the pin hook, until it has
// done replaying from the records and packing its own.
type chunkRecords struct {
	buf  *offheap.Buf
	recs codec.PackedSyntax
}

// claim clears the prefetched mark and reports whether this call did so:
// one claimant wins per readahead load, the first foreground response built
// from it or else the cache's removal hook. The Load keeps hits on a chunk
// claimed long ago off the cache line's exclusive state.
func (p chunkPayload) claim() bool {
	return p.prefetched != nil && p.prefetched.Load() && p.prefetched.CompareAndSwap(true, false)
}

// tenant is one archive slot of the catalog.
type tenant struct {
	name string
	spec ArchiveSpec

	mu      sync.Mutex // tenant state; held across spec.Open on the lazy-open path
	archive *store.ChunkArchive
	backend store.Backend
	gen     uint64 // catalog-global generation of the current open; names the cache space
	retired bool   // Removed from the catalog; the last release closes

	refs    atomic.Int64 // requests currently inside this tenant
	lastUse atomic.Int64 // unix nanos of the last acquire/release

	breaker breaker
}

func (t *tenant) touch() { t.lastUse.Store(time.Now().UnixNano()) }

// space names the tenant's current cache namespace. The generation is
// drawn from a catalog-global counter at every open, so no two opens —
// including a Remove/Add recreating the same name over a different backing
// file — ever share a namespace, and entries cached from a previous open
// (or loads that land after a close) can never serve a reopened archive.
func (t *tenant) space() string {
	return t.name + "#" + strconv.FormatUint(t.gen, 10)
}

// NewCatalog returns a catalog over the given archive specs, its routes
// mounted. Names must be unique, non-empty, and contain no '/' or '#'. An
// empty spec list is allowed; archives can be added (and removed) later,
// which is how the CLI's SIGHUP rescan works.
func NewCatalog(specs []ArchiveSpec, options ...Option) (*Catalog, error) {
	cfg := config{
		cacheBytes:     defaultCacheBytes,
		prefetchDepth:  defaultPrefetchDepth,
		requestTimeout: defaultRequestTimeout,
	}
	for _, o := range options {
		o(&cfg)
	}
	syntaxBytes := cfg.cacheBytes / syntaxShare
	renderedBytes := cfg.cacheBytes - syntaxBytes
	c := &Catalog{
		cfg:         cfg,
		render:      offheap.NewPool(renderedBytes / idleShare),
		records:     offheap.NewPool(syntaxBytes / idleShare),
		heapSamples: [2]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}},
		// One shard each, a strict LRU over an unfragmented budget. A rendered
		// chunk is a sizeable share of the budget (at 320×176 a 30-frame chunk
		// is 2.5 MB, 5 % of 48 MiB), and hash shards that each own an equal
		// slice of it evict a chunk from a full shard while others have room;
		// the record tier is touched once per cold miss, beside a millisecond
		// of decode, so it has no lock contention to shard away.
		cache: cache.NewShardedHash[cache.Keyed[int], chunkPayload](renderedBytes, 1, func(p chunkPayload) int64 {
			return int64(p.buf.Len())
		}, nil),
		syntax: cache.NewShardedHash[cache.Keyed[int], chunkRecords](syntaxBytes, 1, func(r chunkRecords) int64 {
			if r.buf == nil {
				return 0
			}
			return int64(r.buf.Size())
		}, nil),
		metrics: obs.NewMetrics(),
	}
	c.observer = obs.Multi(c.metrics, cfg.observer)
	c.observer.Gauge(obs.GaugeCatalogOpenArchives, "", 0)
	// A readahead load that leaves the cache — evicted, or purged by Remove
	// — before any client used it was wasted; the space is "name#gen".
	c.cache.OnRemove(func(k cache.Keyed[int], p chunkPayload) {
		if p.claim() {
			name, _, _ := strings.Cut(k.Space, "#")
			c.observer.Counter(obs.CtrServePrefetchWasted, name, 1)
		}
		p.buf.Release()
	})
	c.cache.OnPin(func(p chunkPayload) { p.buf.Pin() })
	c.syntax.OnRemove(func(_ cache.Keyed[int], r chunkRecords) {
		if r.buf != nil {
			r.buf.Release()
		}
	})
	c.syntax.OnPin(func(r chunkRecords) {
		if r.buf != nil {
			r.buf.Pin()
		}
	})
	// A catalog dropped without its buffers released gives its mappings
	// back once unreachable; nothing can touch them then.
	runtime.AddCleanup(c, (*offheap.Pool).Free, c.render)
	runtime.AddCleanup(c, (*offheap.Pool).Free, c.records)
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("GET /healthz", c.route("healthz", c.handleHealthz))
	c.mux.HandleFunc("GET /metrics", c.route("metrics", c.handleMetrics))
	c.mux.HandleFunc("GET /v1/archives", c.route("archives", c.handleArchives))
	c.mux.HandleFunc("GET /v1/archives/{name}", c.route("archive", c.handleArchive))
	c.mux.HandleFunc("GET /v1/archives/{name}/chunks/{index}", c.route("chunk", c.handleChunk))
	c.mux.HandleFunc("GET /v1/archives/{name}/chunks/{index}/meta", c.route("chunk_meta", c.handleChunkMeta))
	if cfg.prefetchDepth > 0 {
		c.prefetch = newPrefetcher(c, cfg.prefetchDepth)
	}
	for _, spec := range specs {
		if err := c.Add(spec); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// newTenant returns the unopened tenant of a spec; acquire opens its
// archive and configures its breaker.
func (c *Catalog) newTenant(spec ArchiveSpec) *tenant {
	t := &tenant{name: spec.Name, spec: spec}
	t.touch()
	return t
}

func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/#") {
		return fmt.Errorf("serve: invalid archive name %q (must be non-empty, no '/' or '#')", name)
	}
	return nil
}

// Add registers one more archive. Adding a name that already exists is an
// error; Remove it first to replace its spec.
func (c *Catalog) Add(spec ArchiveSpec) error {
	if err := validName(spec.Name); err != nil {
		return err
	}
	if spec.Open == nil {
		return fmt.Errorf("serve: archive %q has no Open function", spec.Name)
	}
	if _, dup := c.tenants.LoadOrStore(spec.Name, c.newTenant(spec)); dup {
		return fmt.Errorf("serve: archive %q already in catalog", spec.Name)
	}
	return nil
}

// Remove drops an archive from the catalog: new requests answer 404
// immediately, its cached chunks are purged (unserved readahead among them
// counts as wasted), and the archive — if open — closes once the last
// in-flight request against it releases, so requests that already acquired
// it finish on the archive they hold; its parse records go with that close.
// Queued readahead jobs for it die at execution time, when the re-acquire
// finds it retired.
func (c *Catalog) Remove(name string) error {
	v, ok := c.tenants.LoadAndDelete(name)
	if !ok {
		return fmt.Errorf("serve: %w: %q", ErrArchiveNotFound, name)
	}
	t := v.(*tenant)
	t.mu.Lock()
	t.retired = true
	if t.refs.Load() == 0 {
		c.closeTenantLocked(t)
	}
	t.mu.Unlock()
	// Every generation of the tenant's cache space starts "name#".
	prefix := name + "#"
	c.cache.RemoveIf(func(k cache.Keyed[int]) bool { return strings.HasPrefix(k.Space, prefix) })
	return nil
}

// members snapshots the catalog's tenants; callers then take each tenant's
// lock one at a time.
func (c *Catalog) members() []*tenant {
	var tenants []*tenant
	c.tenants.Range(func(_, v any) bool {
		tenants = append(tenants, v.(*tenant))
		return true
	})
	return tenants
}

// Names returns the catalog's archive names, sorted.
func (c *Catalog) Names() []string {
	var names []string
	for _, t := range c.members() {
		names = append(names, t.name)
	}
	sort.Strings(names)
	return names
}

// openDelta adjusts the open-archive count and republishes the gauge. The
// tenant paths (acquire, Remove, CloseIdle, Close) call it holding t.mu;
// gaugeMu is a leaf, so that nesting cannot deadlock.
func (c *Catalog) openDelta(d int64) {
	c.gaugeMu.Lock()
	c.observer.Gauge(obs.GaugeCatalogOpenArchives, "", float64(c.open.Add(d)))
	c.gaugeMu.Unlock()
}

// OpenArchives returns the number of archives currently held open.
func (c *Catalog) OpenArchives() int { return int(c.open.Load()) }

// closeTenantLocked closes the tenant's archive and backend, reporting
// whether it closed anything (an already-closed tenant is a no-op). t.mu
// must be held. The parse records of the open that ends here go with it:
// the next open is a new space that could never look them up, and the
// record tier's strict LRU would otherwise hold them until newer records
// needed the room.
func (c *Catalog) closeTenantLocked(t *tenant) bool {
	if t.archive == nil {
		return false
	}
	t.archive.Close()
	t.backend.Close()
	t.archive, t.backend = nil, nil
	space := t.space()
	c.syntax.RemoveIf(func(k cache.Keyed[int]) bool { return k.Space == space })
	c.openDelta(-1)
	return true
}

// releaseRef drops one request's pin on the tenant. The last release of a
// retired tenant (Removed while requests were in flight) closes its
// archive: Remove defers the close here so in-flight requests finish on
// the archive they hold.
func (c *Catalog) releaseRef(t *tenant) {
	t.touch()
	if t.refs.Add(-1) > 0 {
		return
	}
	t.mu.Lock()
	if t.retired {
		c.closeTenantLocked(t)
	}
	t.mu.Unlock()
}

// acquire pins the named tenant for one request: it lazily opens the
// archive if needed, bumps the refcount (blocking idle-close for the
// duration), and returns the archive, the tenant's current cache space,
// and a release func the caller must run when done.
func (c *Catalog) acquire(name string) (*tenant, *store.ChunkArchive, string, func(), error) {
	v, ok := c.tenants.Load(name)
	if !ok {
		return nil, nil, "", nil, fmt.Errorf("serve: %w: %q", ErrArchiveNotFound, name)
	}
	t := v.(*tenant)
	t.refs.Add(1)
	t.touch()
	t.mu.Lock()
	if t.retired {
		// Removed after we looked it up: behave as if the lookup missed.
		t.mu.Unlock()
		c.releaseRef(t)
		return nil, nil, "", nil, fmt.Errorf("serve: %w: %q", ErrArchiveNotFound, name)
	}
	if t.archive == nil {
		b, err := t.spec.Open()
		if err == nil {
			var a *store.ChunkArchive
			a, err = store.OpenArchiveBackend(b, t.spec.Options...)
			if err != nil {
				b.Close()
			} else {
				t.archive, t.backend = a, b
				// The breaker judges reads under the policy the archive
				// opened with. Every request that reads it acquires the
				// tenant after this write, under t.mu.
				pol := a.Policy()
				t.breaker.threshold, t.breaker.cooldown = pol.BreakerThreshold, pol.BreakerCooldown
				t.gen = c.gens.Add(1)
				c.openDelta(1)
			}
		} else {
			// The medium is unreachable, not the data damaged: surface as a
			// device failure so clients get 503 + Retry-After, not a 500.
			err = fmt.Errorf("serve: opening archive %q: %w: %w", name, store.ErrReadFailed, err)
		}
		if err != nil {
			t.mu.Unlock()
			c.releaseRef(t)
			return nil, nil, "", nil, err
		}
	}
	a, space := t.archive, t.space()
	t.mu.Unlock()
	release := func() { c.releaseRef(t) }
	return t, a, space, release, nil
}

// CloseIdle closes every open archive that has no in-flight request and
// has been unused for at least the idle timeout as of now, returning how
// many it closed. Serve runs it periodically; tests may call it directly.
// Without an idle timeout (WithIdleTimeout) it is a no-op.
func (c *Catalog) CloseIdle(now time.Time) int {
	if c.cfg.idleTimeout <= 0 {
		return 0
	}
	cutoff := now.Add(-c.cfg.idleTimeout).UnixNano()
	closed := 0
	for _, t := range c.members() {
		if t.refs.Load() > 0 || t.lastUse.Load() > cutoff {
			continue
		}
		t.mu.Lock()
		// Re-check under the tenant lock: an acquire that raced us either
		// bumped refs before we looked (we skip) or will block on t.mu and
		// reopen a fresh generation after we close.
		if t.refs.Load() == 0 && t.lastUse.Load() <= cutoff && c.closeTenantLocked(t) {
			closed++
		}
		t.mu.Unlock()
	}
	return closed
}

// Close closes every open archive and shuts the readahead prefetcher
// down, cancelling its in-flight loads. The catalog remains usable for
// foreground requests — subsequent requests reopen archives lazily — but
// prefetching does not resume: later requests schedule nothing.
func (c *Catalog) Close() error {
	if c.prefetch != nil {
		c.prefetch.close()
	}
	for _, t := range c.members() {
		t.mu.Lock()
		c.closeTenantLocked(t)
		t.mu.Unlock()
	}
	return nil
}

// Handler returns the catalog's routing handler, for mounting under a
// custom http.Server or httptest.
func (c *Catalog) Handler() http.Handler { return c.mux }

// Metrics returns the catalog's metrics aggregator.
func (c *Catalog) Metrics() *obs.Metrics { return c.metrics }

// CacheStats returns the shared decoded-chunk cache counters across all
// archives — the rendered tier only; Stats.Loads is the number of actual
// decode executions.
func (c *Catalog) CacheStats() cache.Stats { return c.cache.Stats() }

// route wraps a handler with the per-request machinery: the in-flight
// gauge, request/error counters, and the request timeout, which is also the
// write deadline of the response. The request context is also cancelled by
// the client hanging up, which the decode path observes at frame boundaries.
func (c *Catalog) route(name string, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.observer.Gauge(obs.GaugeServeInFlight, "", float64(c.inFlight.Add(1)))
		defer func() {
			c.observer.Gauge(obs.GaugeServeInFlight, "", float64(c.inFlight.Add(-1)))
		}()
		c.observer.Counter(obs.CtrServeRequests, name, 1)

		ctx, cancel := context.WithTimeout(r.Context(), c.cfg.requestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		setWriteDeadline(ctx, sw)
		if err := h(sw, r.WithContext(ctx)); err != nil {
			writeError(sw, err)
		}
		if sw.status >= 400 {
			c.observer.Counter(obs.CtrServeErrors, name, 1)
		}
	}
}

// setWriteDeadline makes ctx's deadline the deadline of w's writes: a client
// that stops reading would otherwise block the handler, and keep the chunk it
// is being sent pinned, for as long as it keeps the connection open. A writer
// without deadlines (a test recorder) is left as it is.
func setWriteDeadline(ctx context.Context, w http.ResponseWriter) {
	deadline, _ := ctx.Deadline()
	_ = http.NewResponseController(w).SetWriteDeadline(deadline)
}

func (c *Catalog) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, err := fmt.Fprintln(w, "ok")
	return err
}

// archiveEntry is one row of the GET /v1/archives listing.
type archiveEntry struct {
	Name string `json:"name"`
	Open bool   `json:"open"`
}

func (c *Catalog) handleArchives(w http.ResponseWriter, r *http.Request) error {
	tenants := c.members()
	entries := make([]archiveEntry, 0, len(tenants))
	for _, t := range tenants {
		t.mu.Lock()
		open := t.archive != nil
		t.mu.Unlock()
		entries = append(entries, archiveEntry{Name: t.name, Open: open})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return writeJSON(w, struct {
		Archives []archiveEntry `json:"archives"`
	}{entries})
}

// archiveIndex is the JSON shape of GET /v1/archives/{name}.
type archiveIndex struct {
	Name        string            `json:"name"`
	Meta        store.ArchiveMeta `json:"meta"`
	Chunks      int               `json:"chunks"`
	TotalFrames int               `json:"total_frames"`
	Index       []store.ChunkInfo `json:"index"`
}

func (c *Catalog) handleArchive(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	_, a, _, release, err := c.acquire(name)
	if err != nil {
		return err
	}
	defer release()
	idx := archiveIndex{
		Name:        name,
		Meta:        a.Meta(),
		Chunks:      a.NumChunks(),
		TotalFrames: a.TotalFrames(),
	}
	idx.Index = make([]store.ChunkInfo, idx.Chunks)
	for i := range idx.Index {
		info, err := a.Info(i)
		if err != nil {
			return err
		}
		idx.Index[i] = info
	}
	return writeJSON(w, idx)
}

func (c *Catalog) handleChunkMeta(w http.ResponseWriter, r *http.Request) error {
	i, err := chunkIndex(r)
	if err != nil {
		return err
	}
	_, a, _, release, err := c.acquire(r.PathValue("name"))
	if err != nil {
		return err
	}
	defer release()
	info, err := a.Info(i)
	if err != nil {
		return err
	}
	return writeJSON(w, info)
}

// handleChunk answers with the decoded frames of one chunk as a YUV4MPEG2
// stream, from the shared cache when hot. Cold chunks are materialized
// once per stampede via the cache's singleflight and then shared. The
// tenant's open circuit breaker sheds the request before any archive or
// cache work; a response built from a degraded read (some approximate
// streams zero-filled) carries the X-Videoapp-Degraded header, on cache
// hits too.
func (c *Catalog) handleChunk(w http.ResponseWriter, r *http.Request) error {
	i, err := chunkIndex(r)
	if err != nil {
		return err
	}
	t, a, space, release, err := c.acquire(r.PathValue("name"))
	if err != nil {
		return err
	}
	defer release()
	if !t.breaker.allow(time.Now()) {
		c.observer.Counter(obs.CtrServeShed, t.name, 1)
		w.Header().Set("Retry-After", strconv.Itoa(t.breaker.retryAfterSeconds()))
		writeJSONError(w, http.StatusServiceUnavailable, "breaker_open",
			fmt.Sprintf("archive %q read path unavailable (circuit breaker open)", t.name))
		return nil
	}
	if _, err := a.Info(i); err != nil {
		return err // 404 before paying a flight for an absent chunk
	}
	sp := cache.In(c.cache, space)
	p, hit, err := sp.GetOrLoad(r.Context(), i, func(ctx context.Context) (chunkPayload, error) {
		return c.materialize(ctx, t, a, space, i)
	})
	if hit {
		c.observer.Counter(obs.CtrServeCacheHits, t.name, 1)
	} else {
		c.observer.Counter(obs.CtrServeCacheMisses, t.name, 1)
	}
	if err != nil {
		if errors.Is(err, store.ErrReadFailed) && t.breaker.failure(time.Now()) {
			c.observer.Gauge(obs.GaugeServeBreakerOpen, t.name, 1)
		}
		return retryAfterError{err: err, seconds: t.breaker.retryAfterSeconds()}
	}
	// The pin the cache took for this response; released once the body is
	// written.
	defer p.buf.Unpin()
	if t.breaker.success() {
		// A success (possibly a probe after the cooldown) closes the
		// breaker; refresh the gauge only on the transition.
		c.observer.Gauge(obs.GaugeServeBreakerOpen, t.name, 0)
	}
	// The first response built from a readahead load settles it: useful if
	// the chunk was waiting in the cache, neither useful nor wasted if this
	// request merely coalesced onto the readahead's flight.
	claimed := p.claim()
	if claimed && hit {
		c.observer.Counter(obs.CtrServePrefetchUseful, t.name, 1)
	}
	if c.prefetch != nil {
		// Warm what a sequential reader asks for next; non-blocking.
		c.prefetch.schedule(t.name, space, i, a.NumChunks(), claimed)
	}
	c.maybePublishCacheGauges()
	w.Header().Set("Content-Type", "video/x-yuv4mpeg")
	w.Header().Set("Content-Length", strconv.Itoa(p.buf.Len()))
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("X-Chunk-Index", strconv.Itoa(i))
	w.Header().Set("X-Archive-Name", t.name)
	if len(p.degraded) > 0 {
		w.Header().Set("X-Videoapp-Degraded", strings.Join(p.degraded, ","))
		c.observer.Counter(obs.CtrServeDegraded, t.name, 1)
	}
	// A body that fails to go out — the client hung up, or stopped reading
	// past the write deadline — leaves nothing to answer: the status is sent.
	_, _ = w.Write(p.buf.Bytes())
	return nil
}

// replayCount observes one cold chunk's decode beside the catalog's observer
// and keeps the one figure materialize wants back: how many frames replayed.
type replayCount struct {
	obs.Noop
	frames atomic.Int64
}

func (r *replayCount) Counter(name, _ string, delta int64) {
	if name == obs.CtrFramesReplayed {
		r.frames.Add(delta)
	}
}

// materialize is the cold-chunk path: read the chunk's bytes from the
// archive under the tenant's fault policy, decode them, and render the
// frames as y4m. It runs at most once per (archive, chunk) under stampede
// (cache singleflight) and publishes the decode span and the per-archive
// decode counter. A degraded read is a success here — the verdict rides
// the payload into the cache so every response built from it is flagged.
// The response buffer, one of the catalog's pool which the payload returned
// owns (chunkPayload), is taken first, sized from the chunk's geometry, and
// the frames are decoded straight into it (y4m.Layout.Views).
func (c *Catalog) materialize(ctx context.Context, t *tenant, a *store.ChunkArchive, space string, i int) (chunkPayload, error) {
	sp := obs.StartSpan(c.observer, obs.StageServeChunk)
	defer sp.End()
	cr, err := a.ReadChunkContext(obs.With(ctx, c.observer), i)
	if err != nil {
		return chunkPayload{}, err
	}
	c.observer.Counter(obs.CtrServeDecodes, t.name, 1)
	v := cr.Video
	layout := y4m.Layout{W: v.W, H: v.H, FPS: v.FPS, Frames: len(v.Frames)}
	n, err := layout.Size()
	if err != nil {
		return chunkPayload{}, err
	}
	buf, err := c.render.Get(n)
	if err != nil {
		return chunkPayload{}, err
	}
	frames, err := layout.Views(buf.Bytes())
	if err == nil {
		err = c.decode(ctx, t, cache.Keyed[int]{Space: space, Key: i}, v, frames)
	}
	if err != nil {
		buf.Release()
		return chunkPayload{}, err
	}
	return chunkPayload{buf: buf, degraded: cr.Degraded}, nil
}

// decode decodes a chunk just read into out, through the record tier.
//
// Every miss pays the read, with each of its checks; what a repeat miss can
// skip is the entropy decoder. The frames just read share slots that hold the
// chunk's records, and the decoder decides frame by frame: bytes equal to the
// ones on record replay, anything else — a degraded or repaired stream, a
// first visit — parses and leaves its own record in its slot. When any frame
// parsed, the slots are packed into a new buffer that takes the place of the
// chunk's entry.
func (c *Catalog) decode(ctx context.Context, t *tenant, key cache.Keyed[int], v *codec.Video, out []*frame.Frame) error {
	held, _, err := c.syntax.GetOrLoad(ctx, key, func(context.Context) (chunkRecords, error) {
		return chunkRecords{}, nil
	})
	if err != nil {
		return err
	}
	// The pin the tier took for this decode, held until the records are
	// packed anew: the replaced buffer is read until then.
	if held.buf != nil {
		defer held.buf.Unpin()
	}
	slots := held.recs.Slots(len(v.Frames))
	for j, f := range v.Frames {
		f.ShareSyntax(&slots[j])
	}
	replayed := new(replayCount)
	err = codec.DecodeInto(obs.With(ctx, obs.Multi(c.observer, replayed)), v, out, c.cfg.workers)
	if int(replayed.frames.Load()) == len(v.Frames) {
		c.observer.Counter(obs.CtrServeReplays, t.name, 1)
	} else if n := codec.SyntaxLen(slots); n > 0 {
		// Without a buffer the records are not kept: the next miss parses.
		if buf, berr := c.records.Get(n); berr == nil {
			c.syntax.Replace(key, chunkRecords{buf: buf, recs: codec.PackSyntax(buf.Bytes(), slots)})
		}
	}
	return err
}

func (c *Catalog) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	c.publishCacheGauges()
	snap := c.metrics.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		return writeJSON(w, snap)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	return snap.WriteText(w)
}

// publishCacheGauges refreshes the cache-derived gauges from the two tiers'
// own counters, their buffer pools and the Go heap.
func (c *Catalog) publishCacheGauges() {
	cs := c.cache.Stats()
	c.observer.Gauge(obs.GaugeServeCacheHitRate, "", cs.HitRate())
	c.observer.Gauge(obs.GaugeServeCacheBytes, "", float64(cs.Cost))
	ss := c.syntax.Stats()
	c.observer.Gauge(obs.GaugeServeSyntaxCacheHitRate, "", ss.HitRate())
	c.observer.Gauge(obs.GaugeServeSyntaxCacheBytes, "", float64(ss.Cost))
	rs := c.render.Stats()
	c.observer.Gauge(obs.GaugeServeRenderMappedBytes, "", float64(rs.Mapped))
	c.observer.Gauge(obs.GaugeServeRenderPinnedBytes, "", float64(rs.Pinned))
	c.observer.Gauge(obs.GaugeServeRenderIdleBytes, "", float64(rs.Idle))
	rec := c.records.Stats()
	c.observer.Gauge(obs.GaugeServeSyntaxMappedBytes, "", float64(rec.Mapped))
	c.observer.Gauge(obs.GaugeServeSyntaxPinnedBytes, "", float64(rec.Pinned))
	c.observer.Gauge(obs.GaugeGoHeapInuseBytes, "", float64(c.heapInuse()))
}

// heapInuse returns the bytes of the Go heap's in-use spans.
func (c *Catalog) heapInuse() uint64 {
	c.heapMu.Lock()
	defer c.heapMu.Unlock()
	metrics.Read(c.heapSamples[:])
	return c.heapSamples[0].Value.Uint64() + c.heapSamples[1].Value.Uint64()
}

// maybePublishCacheGauges is the chunk-path variant: one refresh every
// cacheGaugeEvery responses (the first response publishes, so a fresh
// catalog's gauges exist immediately), costing the other responses a
// single atomic increment instead of four metrics-mutex writes.
func (c *Catalog) maybePublishCacheGauges() {
	if c.cacheGaugeTick.Add(1)&(cacheGaugeEvery-1) != 1 {
		return
	}
	c.publishCacheGauges()
}

// Serve accepts connections on l until ctx is cancelled, then shuts down
// gracefully: the listener closes, idle connections drop, and in-flight
// requests get 10 seconds to finish before the server gives up. While
// serving, idle archives are closed every half idle timeout (when one
// is configured; never more often than once a millisecond). It
// returns nil on a clean drained shutdown.
func (c *Catalog) Serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return context.WithoutCancel(ctx) },
	}
	if c.cfg.idleTimeout > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			// The floor keeps a degenerate timeout (1 ns halves to 0, which
			// NewTicker panics on) from killing the server.
			tick := time.NewTicker(max(c.cfg.idleTimeout/2, time.Millisecond))
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					c.CloseIdle(time.Now())
				case <-stop:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	//vetvideoapp:allow ctxfirst — deliberate detachment: the drain deadline must outlive the just-cancelled serve context
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(drain)
	if serr := <-errc; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}
