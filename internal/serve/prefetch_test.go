package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videoapp/internal/obs"
	"videoapp/internal/store"
)

// waitUntil polls cond for up to two seconds — long past any decode on
// this hardware — and fails the test if it never holds.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// hookBackend runs hook, when one is set, before every read: tests park or
// fail reads by offset with it. The hook is installed after the archive has
// been opened (the open scans every record header).
type hookBackend struct {
	store.Backend
	hook atomic.Pointer[func(off int64) error]
}

func (b *hookBackend) ReadAt(p []byte, off int64) (int, error) {
	if h := b.hook.Load(); h != nil {
		if err := (*h)(off); err != nil {
			return 0, err
		}
	}
	return b.Backend.ReadAt(p, off)
}

// holdFrom parks every read at or past chunk i's payload — chunk i and all
// later chunks — until the returned release runs (the test's end at the
// latest), leaving reads of earlier chunks alone.
func (b *hookBackend) holdFrom(t testing.TB, data []byte, i int) (release func()) {
	info, err := openBytes(t, data).Info(i)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	hook := func(off int64) error {
		if off >= info.Offset {
			<-gate
		}
		return nil
	}
	b.hook.Store(&hook)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// spec serves b under the catalog's lazy open.
func (b *hookBackend) spec() ArchiveSpec {
	return ArchiveSpec{Open: func() (store.Backend, error) { return b, nil }}
}

// chunkGet fetches chunk i of the named archive through the handler and
// returns the status and the X-Cache verdict.
func chunkGet(t testing.TB, c *Catalog, name string, i int) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/archives/%s/chunks/%d", name, i), nil))
	return rec.Code, rec.Header().Get("X-Cache")
}

// mustGet is chunkGet of the test archive that insists on 200 and on the
// given X-Cache verdict.
func mustGet(t testing.TB, c *Catalog, i int, want string) {
	t.Helper()
	if status, xc := chunkGet(t, c, testArchive, i); status != http.StatusOK || xc != want {
		t.Fatalf("chunk %d: status %d X-Cache %q, want 200 %s", i, status, xc, want)
	}
}

// prefetchCounts reads the readahead counters of one archive.
func prefetchCounts(c *Catalog, name string) (issued, useful, wasted int64) {
	snap := c.Metrics().Snapshot()
	return snap.Counter(obs.CtrServePrefetchIssued, name),
		snap.Counter(obs.CtrServePrefetchUseful, name),
		snap.Counter(obs.CtrServePrefetchWasted, name)
}

// settle is the barrier behind every "and nothing else happened" assertion:
// it waits for the readahead queue to drain and the loads to land, then
// closes the catalog, which returns only once no worker is executing a job.
// The counters are final afterwards. (Tests wait for the loads they expect
// before settling; a job between the queue and its load when Close cancels
// it would still be counted, as issued and wasted.)
func settle(t testing.TB, c *Catalog) {
	t.Helper()
	waitUntil(t, "readahead to go quiet", func() bool {
		return len(c.prefetch.jobs) == 0 && c.prefetch.inFlight.Load() == 0
	})
	c.Close()
}

// TestPrefetchWarmsSequentialReads is the tentpole contract end to end: a
// request for chunk 0 warms chunks 1 and 2 in the background, so the
// sequential reader's next requests are cache hits (X-Cache: hit) that
// decoded off the request path, and the useful counter records them.
func TestPrefetchWarmsSequentialReads(t *testing.T) {
	s := serveBytes(t, buildArchiveBytes(t, 5)) // defaults: readahead depth 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + chunkPath(0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold chunk 0: X-Cache = %q, want miss", got)
	}

	// Readahead for chunks 1 and 2 runs in the background; both land in
	// the cache (alongside chunk 0) without any further request.
	waitUntil(t, "readahead of chunks 1 and 2", func() bool {
		return s.CacheStats().Len >= 3 &&
			s.Metrics().Snapshot().Counter(obs.CtrServePrefetchIssued, testArchive) >= 2
	})

	for _, i := range []int{1, 2} {
		resp, err := ts.Client().Get(ts.URL + chunkPath(i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("prefetched chunk %d: X-Cache = %q, want hit", i, got)
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counter(obs.CtrServePrefetchUseful, testArchive); got != 2 {
		t.Fatalf("serve_prefetch_useful = %d, want 2", got)
	}

	// The foreground hit/miss counters came from the single GetOrLoad:
	// exactly one miss (chunk 0) and two hits, no double counting.
	if got := snap.Counter(obs.CtrServeCacheMisses, testArchive); got != 1 {
		t.Fatalf("serve_cache_misses = %d, want 1", got)
	}
	if got := snap.Counter(obs.CtrServeCacheHits, testArchive); got != 2 {
		t.Fatalf("serve_cache_hits = %d, want 2", got)
	}
}

// TestPrefetchDisabled: with WithPrefetch(0) sequential reads all decode on
// demand and no prefetch counters move.
func TestPrefetchDisabled(t *testing.T) {
	s := serveBytes(t, buildArchiveBytes(t, 3), WithPrefetch(0))
	for i := 0; i < 3; i++ {
		mustGet(t, s, i, "miss")
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counter(obs.CtrServeDecodes, testArchive); got != 3 {
		t.Fatalf("decodes = %d, want 3 (no readahead)", got)
	}
	if got := snap.CounterTotal(obs.CtrServePrefetchIssued); got != 0 {
		t.Fatalf("serve_prefetch_issued = %d with readahead disabled", got)
	}
}

// queuedFixture is how the drop-before-any-archive-work rules are reached
// through requests. It serves two archives at readahead depth 4: testArchive
// over the given spec, and "parked", whose reads past chunk 0 block until
// release. One request for parked's chunk 0 queues four jobs that occupy
// every readahead worker (there are at most four), so the jobs the test's
// own request for testArchive's chunk 0 queues behind them — chunks 1..4 —
// cannot start until the test has changed the tenant's state and released
// the workers.
func queuedFixture(t *testing.T, spec ArchiveSpec, options ...Option) (cat *Catalog, release func()) {
	t.Helper()
	data := buildArchiveBytes(t, 6)
	parked := &hookBackend{Backend: store.NewSnapshotBackend(data)}
	pspec := parked.spec()
	pspec.Name = "parked"
	cat = serveOne(t, spec, append([]Option{WithPrefetch(4)}, options...)...)
	if err := cat.Add(pspec); err != nil {
		t.Fatal(err)
	}
	if status, _ := chunkGet(t, cat, "parked", 5); status != http.StatusOK { // opens the archive
		t.Fatalf("parked chunk 5: status %d", status)
	}
	release = parked.holdFrom(t, data, 1)
	if status, _ := chunkGet(t, cat, "parked", 0); status != http.StatusOK {
		t.Fatalf("parked chunk 0: status %d", status)
	}
	mustGet(t, cat, 0, "miss")
	return cat, release
}

// wantNoReadahead asserts that none of testArchive's queued jobs ran a load:
// nothing issued, and decodes exactly the foreground's.
func wantNoReadahead(t *testing.T, cat *Catalog, decodes int64) {
	t.Helper()
	if issued, _, _ := prefetchCounts(cat, testArchive); issued != 0 {
		t.Fatalf("serve_prefetch_issued = %d, want 0", issued)
	}
	if got := cat.Metrics().Snapshot().Counter(obs.CtrServeDecodes, testArchive); got != decodes {
		t.Fatalf("decodes = %d, want %d (foreground only)", got, decodes)
	}
}

// TestPrefetchNeverFiresThroughOpenBreaker: jobs that reach a worker while
// their tenant's breaker is open are dropped before any archive or cache
// work, and leave the breaker as they found it.
func TestPrefetchNeverFiresThroughOpenBreaker(t *testing.T) {
	dev := &togglingAt{Backend: store.NewSnapshotBackend(buildArchiveBytes(t, 6))}
	pol := store.FaultPolicy{MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Minute}
	cat, release := queuedFixture(t, ArchiveSpec{
		Open:        func() (store.Backend, error) { return dev, nil },
		FaultPolicy: &pol,
	})
	// One hard foreground failure (chunk 5 is outside the queued window)
	// opens the breaker; the device then recovers, so readahead that did
	// fire would succeed and show.
	dev.broken.Store(true)
	if status, _ := chunkGet(t, cat, testArchive, 5); status != http.StatusServiceUnavailable {
		t.Fatalf("failing device: status %d, want 503", status)
	}
	dev.broken.Store(false)
	release()
	settle(t, cat)
	wantNoReadahead(t, cat, 2) // chunk 0 and the failed chunk 5
	if cat.Metrics().Snapshot().Gauge(obs.GaugeServeBreakerOpen, testArchive) != 1 {
		t.Fatal("readahead touched the breaker")
	}
}

// TestPrefetchNeverFiresOnRetiredTenant: jobs queued before a Remove die
// at execution time — the re-acquire finds the tenant gone — and the Remove
// leaves nothing of the tenant behind.
func TestPrefetchNeverFiresOnRetiredTenant(t *testing.T) {
	cat, release := queuedFixture(t, ArchiveSpec{
		Open: func() (store.Backend, error) { return store.NewSnapshotBackend(buildArchiveBytes(t, 6)), nil },
	})
	if err := cat.Remove(testArchive); err != nil {
		t.Fatal(err)
	}
	release()
	waitUntil(t, "parked readahead to land", func() bool {
		issued, _, _ := prefetchCounts(cat, "parked")
		return issued == 4
	})
	settle(t, cat)
	wantNoReadahead(t, cat, 1)
	// What is resident is parked's: chunks 5 and 0 and the four warmed.
	if got := cat.CacheStats().Len; got != 6 {
		t.Fatalf("%d chunks resident, want parked's 6 only", got)
	}
}

// TestPrefetchStaleGenerationDropped: a job scheduled under one open
// generation is dropped when the archive was since reopened under a new
// cache space.
func TestPrefetchStaleGenerationDropped(t *testing.T) {
	data := buildArchiveBytes(t, 6)
	cat, release := queuedFixture(t, ArchiveSpec{
		Open: func() (store.Backend, error) { return store.NewSnapshotBackend(data), nil },
	}, WithIdleTimeout(time.Millisecond))
	// parked is pinned by its blocked loads; only the test archive closes.
	waitUntil(t, "a parked load to pin its archive", func() bool { return cat.prefetch.inFlight.Load() > 0 })
	time.Sleep(2 * time.Millisecond)
	if n := cat.CloseIdle(time.Now()); n != 1 {
		t.Fatalf("CloseIdle closed %d, want 1", n)
	}
	// Reopen under a fresh generation without touching the chunk path.
	rec := httptest.NewRecorder()
	cat.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, chunkPath(5)+"/meta", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reopening meta request: status %d", rec.Code)
	}
	release()
	settle(t, cat)
	wantNoReadahead(t, cat, 1)
}

// TestPrefetchPastEndOfArchive: readahead is clamped to the archive, so a
// request for the last chunk — or one whose window is already resident —
// queues nothing and no load dies on a missing chunk.
func TestPrefetchPastEndOfArchive(t *testing.T) {
	cat := serveBytes(t, buildArchiveBytes(t, 2))
	mustGet(t, cat, 1, "miss")
	mustGet(t, cat, 0, "miss")
	settle(t, cat)
	wantNoReadahead(t, cat, 2)
}

// TestPrefetchOutcomeAccounting pins what each readahead load is counted
// as, exactly once, from the requests that decide it.
func TestPrefetchOutcomeAccounting(t *testing.T) {
	data := buildArchiveBytes(t, 6)
	chunkBytes := int64(len(wantChunkBody(t, openBytes(t, data), 0)))
	want := func(t *testing.T, cat *Catalog, issued, useful, wasted int64) {
		t.Helper()
		i, u, w := prefetchCounts(cat, testArchive)
		if i != issued || u != useful || w != wasted {
			t.Fatalf("issued/useful/wasted = %d/%d/%d, want %d/%d/%d", i, u, w, issued, useful, wasted)
		}
	}
	// warmed waits until n readahead loads have run and landed (a load is
	// counted before it is stored, and in flight until after).
	warmed := func(t *testing.T, cat *Catalog, n int64) {
		t.Helper()
		waitUntil(t, "readahead to land", func() bool {
			issued, _, _ := prefetchCounts(cat, testArchive)
			return issued == n && cat.prefetch.inFlight.Load() == 0
		})
	}

	t.Run("hit is useful once", func(t *testing.T) {
		cat := serveBytes(t, data, WithPrefetch(1))
		mustGet(t, cat, 0, "miss")
		warmed(t, cat, 1)
		mustGet(t, cat, 1, "hit")
		mustGet(t, cat, 1, "hit")
		warmed(t, cat, 2) // chunk 2, warmed by the requests for 1 and unserved
		settle(t, cat)
		want(t, cat, 2, 1, 0)
	})

	t.Run("evicted unserved is wasted once", func(t *testing.T) {
		// Room for two chunks in one strict-LRU shard.
		cat := serveBytes(t, data, WithPrefetch(1), WithCacheShards(1), WithCacheBytes(2*chunkBytes+chunkBytes/2))
		mustGet(t, cat, 0, "miss") // resident: 1* 0
		warmed(t, cat, 1)
		mustGet(t, cat, 3, "miss") // 3 evicts 0; then 4* evicts the unserved 1*
		warmed(t, cat, 2)
		settle(t, cat)
		want(t, cat, 2, 0, 1)
	})

	t.Run("coalesced is neither", func(t *testing.T) {
		dev := &hookBackend{Backend: store.NewSnapshotBackend(data)}
		cat := serveOne(t, dev.spec(), WithPrefetch(1))
		mustGet(t, cat, 5, "miss") // opens the archive; last chunk, no readahead
		release := dev.holdFrom(t, data, 1)
		mustGet(t, cat, 0, "miss")
		waitUntil(t, "readahead of chunk 1 to take off", func() bool { return cat.CacheStats().Loads == 3 })
		done := make(chan string, 1)
		go func() {
			_, xc := chunkGet(t, cat, testArchive, 1)
			done <- xc
		}()
		waitUntil(t, "the request to join the flight", func() bool { return cat.CacheStats().Misses == 4 })
		release()
		if xc := <-done; xc != "miss" {
			t.Fatalf("coalesced request: X-Cache %q, want miss", xc)
		}
		mustGet(t, cat, 1, "hit")
		warmed(t, cat, 2)
		settle(t, cat)
		if got := cat.CacheStats().Loads; got != 4 { // 5, 0, 1*, and 2* warmed by the requests for 1
			t.Fatalf("loads = %d, want 4 (one per chunk)", got)
		}
		want(t, cat, 2, 0, 0)
	})

	t.Run("failed load is issued and wasted", func(t *testing.T) {
		dev := &hookBackend{Backend: store.NewSnapshotBackend(data)}
		pol := store.FaultPolicy{MaxRetries: -1}
		spec := dev.spec()
		spec.FaultPolicy = &pol
		cat := serveOne(t, spec, WithPrefetch(1))
		mustGet(t, cat, 5, "miss")
		info, err := openBytes(t, data).Info(1)
		if err != nil {
			t.Fatal(err)
		}
		fail := func(off int64) error {
			if off >= info.Offset {
				return errDeviceDown
			}
			return nil
		}
		dev.hook.Store(&fail)
		mustGet(t, cat, 0, "miss")
		warmed(t, cat, 1)
		settle(t, cat)
		want(t, cat, 1, 0, 1)
		if cat.Metrics().Snapshot().Gauge(obs.GaugeServeBreakerOpen, testArchive) != 0 {
			t.Fatal("a failed readahead load touched the breaker")
		}
	})

	t.Run("Remove wastes the unserved and leaves nothing", func(t *testing.T) {
		cat := serveBytes(t, data)
		mustGet(t, cat, 0, "miss")
		warmed(t, cat, 2)
		if err := cat.Remove(testArchive); err != nil {
			t.Fatal(err)
		}
		want(t, cat, 2, 0, 2)
		if got := cat.CacheStats().Len; got != 0 {
			t.Fatalf("%d chunks resident after Remove", got)
		}
	})
}

// TestPrefetchSchedulesOncePerTarget: however often a window is scheduled
// while its targets are queued or loading, each target is loaded once.
func TestPrefetchSchedulesOncePerTarget(t *testing.T) {
	data := buildArchiveBytes(t, 6)
	dev := &hookBackend{Backend: store.NewSnapshotBackend(data)}
	cat := serveOne(t, dev.spec(), WithPrefetch(4))
	mustGet(t, cat, 5, "miss")
	release := dev.holdFrom(t, data, 1)
	mustGet(t, cat, 0, "miss")
	for r := 0; r < 4; r++ {
		mustGet(t, cat, 0, "hit") // re-schedules 1..4: loading, or queued again
	}
	release()
	waitUntil(t, "readahead of chunks 1..4", func() bool {
		issued, _, _ := prefetchCounts(cat, testArchive)
		return issued == 4
	})
	settle(t, cat)
	if got := cat.CacheStats().Loads; got != 6 {
		t.Fatalf("loads = %d, want 6 (chunks 5, 0 and one per target)", got)
	}
	if issued, _, _ := prefetchCounts(cat, testArchive); issued != 4 {
		t.Fatalf("serve_prefetch_issued = %d, want 4", issued)
	}
}

// TestPrefetchIdleAfterClose: Close leaves the catalog usable for foreground
// requests, and those requests neither queue readahead nobody would run nor
// grow any other prefetcher state.
func TestPrefetchIdleAfterClose(t *testing.T) {
	cat := serveBytes(t, buildArchiveBytes(t, 4))
	cat.Close()
	for i := 0; i < 3; i++ {
		mustGet(t, cat, i, "miss")
	}
	if n := len(cat.prefetch.jobs); n != 0 {
		t.Fatalf("%d readahead jobs queued after Close", n)
	}
	wantNoReadahead(t, cat, 3)
}

// hotHitAllocs is what one hot chunk response allocates: the request's
// context and timer, the status writer and the header values. It was 18
// while readahead kept a scheduling hint; its bookkeeping now allocates
// nothing on this path.
const hotHitAllocs = 17

// TestHotChunkHitAllocs pins the hot path's allocation count: a hit on a
// resident chunk — once-prefetched or not, with its readahead window
// resident too — allocates no more than it did before.
func TestHotChunkHitAllocs(t *testing.T) {
	cat := serveBytes(t, buildArchiveBytes(t, 4))
	reqs := make([]*http.Request, 4)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, chunkPath(i), nil)
	}
	w := &nullWriter{h: http.Header{}}
	n := 0
	serveNext := func() {
		clear(w.h)
		cat.Handler().ServeHTTP(w, reqs[n%len(reqs)])
		n++
	}
	for range reqs {
		serveNext()
	}
	waitUntil(t, "readahead to go quiet", func() bool {
		return len(cat.prefetch.jobs) == 0 && cat.prefetch.inFlight.Load() == 0
	})
	for range reqs {
		serveNext() // claims the prefetched chunks; everything is hot now
	}
	if got := testing.AllocsPerRun(200, serveNext); got > hotHitAllocs {
		t.Fatalf("hot chunk hit: %.1f allocs, want <= %d", got, hotHitAllocs)
	}
}

// nullWriter is a reusable ResponseWriter that discards the body.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}
