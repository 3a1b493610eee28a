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
func (b *hookBackend) holdFrom(t testing.TB, c *container, i int) (release func()) {
	info := c.info(t, i)
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

// prefetchCounts reads the readahead counters of one archive.
func prefetchCounts(c *Catalog, name string) (issued, useful, wasted int64) {
	snap := c.Metrics().Snapshot()
	return snap.Counter(obs.CtrServePrefetchIssued, name),
		snap.Counter(obs.CtrServePrefetchUseful, name),
		snap.Counter(obs.CtrServePrefetchWasted, name)
}

// warmed waits until exactly n readahead loads of the named archive have run
// and landed (a load is counted before it is stored, and in flight until
// after).
func warmed(t testing.TB, c *Catalog, name string, n int64) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("readahead load %d of %s to land", n, name), func() bool {
		issued, _, _ := prefetchCounts(c, name)
		return issued == n && c.prefetch.inFlight.Load() == 0
	})
}

// wantCounts asserts the readahead counters of the named archive.
func wantCounts(t testing.TB, c *Catalog, name string, issued, useful, wasted int64) {
	t.Helper()
	if i, u, w := prefetchCounts(c, name); i != issued || u != useful || w != wasted {
		t.Fatalf("%s: issued/useful/wasted = %d/%d/%d, want %d/%d/%d", name, i, u, w, issued, useful, wasted)
	}
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

// TestPrefetchWarmsSequentialReads is the readahead contract end to end over
// a real socket: a reader that starts at chunk 0 and keeps going finds every
// later chunk decoded off the request path (X-Cache: hit), the window opening
// from one chunk to the configured two once the reader consumes what was
// warmed, and the useful counter records each.
func TestPrefetchWarmsSequentialReads(t *testing.T) {
	s := serveBytes(t, containerOf(t, 6, nil).data) // defaults: readahead depth 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fetch(t, ts.Client(), ts.URL+chunkPath(0)).wantCache(t, "miss")
	warmed(t, s, testArchive, 1) // chunk 1, without any further request
	fetch(t, ts.Client(), ts.URL+chunkPath(1)).wantCache(t, "hit")
	warmed(t, s, testArchive, 3) // chunks 2 and 3
	fetch(t, ts.Client(), ts.URL+chunkPath(2)).wantCache(t, "hit")
	fetch(t, ts.Client(), ts.URL+chunkPath(3)).wantCache(t, "hit")
	snap := s.Metrics().Snapshot()
	if got := snap.Counter(obs.CtrServePrefetchUseful, testArchive); got != 3 {
		t.Fatalf("serve_prefetch_useful = %d, want 3", got)
	}

	// The foreground hit/miss counters came from the single GetOrLoad:
	// exactly one miss (chunk 0) and three hits, no double counting.
	if got := snap.Counter(obs.CtrServeCacheMisses, testArchive); got != 1 {
		t.Fatalf("serve_cache_misses = %d, want 1", got)
	}
	if got := snap.Counter(obs.CtrServeCacheHits, testArchive); got != 3 {
		t.Fatalf("serve_cache_hits = %d, want 3", got)
	}
}

// TestPrefetchDisabled: with WithPrefetch(0) sequential reads all decode on
// demand and no prefetch counters move.
func TestPrefetchDisabled(t *testing.T) {
	s := serveBytes(t, containerOf(t, 3, nil).data, WithPrefetch(0))
	for i := 0; i < 3; i++ {
		serveDirect(t, s, chunkPath(i)).wantCache(t, "miss")
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
// over the given spec, and "parked", whose reads past chunk 1 block until
// release. A reader of parked's chunks 0 and 1 — the second response claims
// the readahead of the first, which opens the full window — queues four jobs
// that occupy every readahead worker (there are at most four), so the job the
// test's own request for testArchive's chunk 0 queues behind them — chunk 1 —
// cannot start until the test has changed the tenant's state and released
// the workers.
func queuedFixture(t *testing.T, spec ArchiveSpec, options ...Option) (cat *Catalog, release func()) {
	t.Helper()
	c := containerOf(t, 6, nil)
	parked := &hookBackend{Backend: store.NewSnapshotBackend(c.data)}
	pspec := parked.spec()
	pspec.Name = "parked"
	cat = serveOne(t, spec, append([]Option{WithPrefetch(4)}, options...)...)
	if err := cat.Add(pspec); err != nil {
		t.Fatal(err)
	}
	// Opens the archive without caching a chunk of it.
	if r := serveDirect(t, cat, pathOf("parked", 0)+"/meta"); r.status != http.StatusOK {
		t.Fatalf("parked chunk 0 meta: status %d", r.status)
	}
	release = parked.holdFrom(t, c, 2)
	serveDirect(t, cat, pathOf("parked", 0)).wantCache(t, "miss")
	warmed(t, cat, "parked", 1)
	serveDirect(t, cat, pathOf("parked", 1)).wantCache(t, "hit")
	serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
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
	dev := &togglingAt{Backend: store.NewSnapshotBackend(containerOf(t, 6, nil).data)}
	pol := store.FaultPolicy{MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Minute}
	cat, release := queuedFixture(t, ArchiveSpec{
		Open:    func() (store.Backend, error) { return dev, nil },
		Options: []store.ArchiveOption{store.WithFaultPolicy(pol)},
	})
	// One hard foreground failure (chunk 5 is outside the queued window)
	// opens the breaker; the device then recovers, so readahead that did
	// fire would succeed and show.
	dev.broken.Store(true)
	if r := serveDirect(t, cat, chunkPath(5)); r.status != http.StatusServiceUnavailable {
		t.Fatalf("failing device: status %d, want 503", r.status)
	}
	dev.broken.Store(false)
	release()
	settle(t, cat)
	wantNoReadahead(t, cat, 1) // chunk 0: the failed read of chunk 5 decoded nothing
	if cat.Metrics().Snapshot().Gauge(obs.GaugeServeBreakerOpen, testArchive) != 1 {
		t.Fatal("readahead touched the breaker")
	}
}

// TestPrefetchNeverFiresOnRetiredTenant: jobs queued before a Remove die
// at execution time — the re-acquire finds the tenant gone — and the Remove
// leaves nothing of the tenant behind.
func TestPrefetchNeverFiresOnRetiredTenant(t *testing.T) {
	cat, release := queuedFixture(t, snapshotSpec(testArchive, containerOf(t, 6, nil).data))
	if err := cat.Remove(testArchive); err != nil {
		t.Fatal(err)
	}
	release()
	waitUntil(t, "parked readahead to land", func() bool {
		issued, _, _ := prefetchCounts(cat, "parked")
		return issued == 5
	})
	settle(t, cat)
	wantNoReadahead(t, cat, 1)
	// What is resident is parked's: chunk 0 and the five warmed.
	if got := cat.CacheStats().Len; got != 6 {
		t.Fatalf("%d chunks resident, want parked's 6 only", got)
	}
}

// TestPrefetchStaleGenerationDropped: a job scheduled under one open
// generation is dropped when the archive was since reopened under a new
// cache space.
func TestPrefetchStaleGenerationDropped(t *testing.T) {
	data := containerOf(t, 6, nil).data
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
	if r := serveDirect(t, cat, chunkPath(5)+"/meta"); r.status != http.StatusOK {
		t.Fatalf("reopening meta request: status %d", r.status)
	}
	release()
	settle(t, cat)
	wantNoReadahead(t, cat, 1)
}

// TestPrefetchPastEndOfArchive: readahead is clamped to the archive, so a
// request for the last chunk — even one entitled to the full window — or one
// whose window is already resident queues nothing, and no load dies on a
// missing chunk.
func TestPrefetchPastEndOfArchive(t *testing.T) {
	cat := serveBytes(t, containerOf(t, 2, nil).data)
	serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
	warmed(t, cat, testArchive, 1)
	serveDirect(t, cat, chunkPath(1)).wantCache(t, "hit") // claimed: the window would be chunks 2 and 3
	serveDirect(t, cat, chunkPath(0)).wantCache(t, "hit") // its window, chunk 1, is resident
	settle(t, cat)
	wantCounts(t, cat, testArchive, 1, 1, 0)
	if got := cat.Metrics().Snapshot().Counter(obs.CtrServeDecodes, testArchive); got != 2 {
		t.Fatalf("decodes = %d, want 2 (one per chunk of the archive)", got)
	}
}

// TestPrefetchOutcomeAccounting pins what each readahead load is counted
// as, exactly once, from the requests that decide it.
func TestPrefetchOutcomeAccounting(t *testing.T) {
	c := containerOf(t, 6, nil)
	data, chunkBytes := c.data, c.chunkBytes()

	t.Run("hit is useful once", func(t *testing.T) {
		cat := serveBytes(t, data, WithPrefetch(1))
		serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
		warmed(t, cat, testArchive, 1)
		serveDirect(t, cat, chunkPath(1)).wantCache(t, "hit")
		serveDirect(t, cat, chunkPath(1)).wantCache(t, "hit")
		warmed(t, cat, testArchive, 2) // chunk 2, warmed by the requests for 1 and unserved
		settle(t, cat)
		wantCounts(t, cat, testArchive, 2, 1, 0)
	})

	t.Run("evicted unserved is wasted once", func(t *testing.T) {
		// Room for two chunks.
		cat := serveBytes(t, data, WithPrefetch(1), withRenderedBytes(2*chunkBytes+chunkBytes/2))
		serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss") // resident: 1* 0
		warmed(t, cat, testArchive, 1)
		serveDirect(t, cat, chunkPath(3)).wantCache(t, "miss") // evicts 0; a random read, no readahead
		serveDirect(t, cat, chunkPath(5)).wantCache(t, "miss") // evicts the unserved 1*
		settle(t, cat)
		wantCounts(t, cat, testArchive, 1, 0, 1)
	})

	t.Run("coalesced is neither", func(t *testing.T) {
		dev := &hookBackend{Backend: store.NewSnapshotBackend(data)}
		cat := serveOne(t, dev.spec(), WithPrefetch(1))
		serveDirect(t, cat, chunkPath(5)).wantCache(t, "miss") // opens the archive; a random read, no readahead
		release := dev.holdFrom(t, c, 1)
		serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
		waitUntil(t, "readahead of chunk 1 to take off", func() bool { return cat.CacheStats().Loads == 3 })
		done := make(chan string, 1)
		go func() {
			done <- serveDirect(t, cat, chunkPath(1)).header.Get("X-Cache")
		}()
		waitUntil(t, "the request to join the flight", func() bool { return cat.CacheStats().Misses == 4 })
		release()
		if xc := <-done; xc != "miss" {
			t.Fatalf("coalesced request: X-Cache %q, want miss", xc)
		}
		serveDirect(t, cat, chunkPath(1)).wantCache(t, "hit")
		warmed(t, cat, testArchive, 2)
		settle(t, cat)
		if got := cat.CacheStats().Loads; got != 4 { // 5, 0, 1*, and 2* warmed by the requests for 1
			t.Fatalf("loads = %d, want 4 (one per chunk)", got)
		}
		wantCounts(t, cat, testArchive, 2, 0, 0)
	})

	t.Run("failed load is issued and wasted", func(t *testing.T) {
		dev := &hookBackend{Backend: store.NewSnapshotBackend(data)}
		spec := dev.spec()
		spec.Options = []store.ArchiveOption{store.WithFaultPolicy(store.FaultPolicy{MaxRetries: -1})}
		cat := serveOne(t, spec, WithPrefetch(1))
		serveDirect(t, cat, chunkPath(5)).wantCache(t, "miss")
		info := c.info(t, 1)
		fail := func(off int64) error {
			if off >= info.Offset {
				return errDeviceDown
			}
			return nil
		}
		dev.hook.Store(&fail)
		serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
		warmed(t, cat, testArchive, 1)
		settle(t, cat)
		wantCounts(t, cat, testArchive, 1, 0, 1)
		if cat.Metrics().Snapshot().Gauge(obs.GaugeServeBreakerOpen, testArchive) != 0 {
			t.Fatal("a failed readahead load touched the breaker")
		}
	})

	t.Run("Remove wastes the unserved and leaves nothing", func(t *testing.T) {
		cat := serveBytes(t, data)
		serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
		warmed(t, cat, testArchive, 1)
		serveDirect(t, cat, chunkPath(1)).wantCache(t, "hit")
		warmed(t, cat, testArchive, 3) // chunks 2 and 3, unserved
		if err := cat.Remove(testArchive); err != nil {
			t.Fatal(err)
		}
		wantCounts(t, cat, testArchive, 3, 1, 2)
		if got := cat.CacheStats().Len; got != 0 {
			t.Fatalf("%d chunks resident after Remove", got)
		}
	})
}

// TestPrefetchSchedulesOncePerTarget: however often a window is scheduled
// while its targets are queued or loading, each target is loaded once.
func TestPrefetchSchedulesOncePerTarget(t *testing.T) {
	c := containerOf(t, 6, nil)
	dev := &hookBackend{Backend: store.NewSnapshotBackend(c.data)}
	cat := serveOne(t, dev.spec(), WithPrefetch(4))
	serveDirect(t, cat, chunkPath(5)).wantCache(t, "miss") // opens the archive; a random read, no readahead
	release := dev.holdFrom(t, c, 1)
	serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
	for r := 0; r < 4; r++ {
		serveDirect(t, cat, chunkPath(0)).wantCache(t, "hit") // re-schedules 1: loading, or queued again
	}
	release()
	warmed(t, cat, testArchive, 1)
	release = dev.holdFrom(t, c, 2)
	serveDirect(t, cat, chunkPath(1)).wantCache(t, "hit") // claims 1: the full window, 2..4 (5 is resident)
	for r := 0; r < 4; r++ {
		serveDirect(t, cat, chunkPath(1)).wantCache(t, "hit") // re-schedules 2: loading, or queued again
	}
	release()
	warmed(t, cat, testArchive, 4)
	settle(t, cat)
	if got := cat.CacheStats().Loads; got != 6 {
		t.Fatalf("loads = %d, want 6 (chunks 5, 0 and one per target)", got)
	}
	wantCounts(t, cat, testArchive, 4, 1, 0)
}

// TestPrefetchPolicy drives each access pattern the window is graded on and
// reads the verdict off the published counters: how much readahead ran, and
// whether the reader's next request found it.
func TestPrefetchPolicy(t *testing.T) {
	const chunks = 14
	c := containerOf(t, chunks, nil)
	data := c.data
	decodes := func(cat *Catalog, name string) int64 {
		return cat.Metrics().Snapshot().Counter(obs.CtrServeDecodes, name)
	}

	t.Run("random reads issue nothing", func(t *testing.T) {
		cat := serveBytes(t, data)
		for _, i := range []int{9, 5, 12, 2, 7} {
			serveDirect(t, cat, chunkPath(i)).wantCache(t, "miss")
		}
		settle(t, cat)
		wantNoReadahead(t, cat, 5)
	})

	t.Run("backward scan issues nothing", func(t *testing.T) {
		cat := serveBytes(t, data)
		for i := 5; i >= 0; i-- {
			serveDirect(t, cat, chunkPath(i)).wantCache(t, "miss")
		}
		settle(t, cat)
		wantNoReadahead(t, cat, 6)
	})

	t.Run("sequential read opens the window", func(t *testing.T) {
		cat := serveBytes(t, data, WithPrefetch(3))
		serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
		warmed(t, cat, testArchive, 1) // start of a stream: one chunk
		serveDirect(t, cat, chunkPath(1)).wantCache(t, "hit")
		warmed(t, cat, testArchive, 4) // claimed: the full depth, 2..4
		serveDirect(t, cat, chunkPath(2)).wantCache(t, "hit")
		warmed(t, cat, testArchive, 5)
		serveDirect(t, cat, chunkPath(3)).wantCache(t, "hit")
		warmed(t, cat, testArchive, 6)
		settle(t, cat)
		wantCounts(t, cat, testArchive, 6, 3, 0)
		if got := decodes(cat, testArchive); got != 7 {
			t.Fatalf("decodes = %d, want 7 (4 chunks read + 3 past the stop)", got)
		}
	})

	t.Run("unpaced sequential read stays within depth of the reader", func(t *testing.T) {
		// The reader does not wait for readahead: each request after the first
		// hits, coalesces onto the readahead's flight, or overtakes a job still
		// queued. Whichever it is, singleflight decodes a chunk once, and
		// readahead never runs further than depth past the last chunk read.
		cat := serveBytes(t, data, WithPrefetch(3))
		for i := 0; i < 6; i++ {
			if r := serveDirect(t, cat, chunkPath(i)); r.status != http.StatusOK {
				t.Fatalf("chunk %d: status %d", i, r.status)
			}
		}
		settle(t, cat)
		if got := decodes(cat, testArchive); got < 6 || got > 9 {
			t.Fatalf("decodes = %d, want 6..9 (6 chunks read + at most 3 past the stop)", got)
		}
	})

	t.Run("a seek ramps over two requests", func(t *testing.T) {
		cat := serveBytes(t, data)
		serveDirect(t, cat, chunkPath(6)).wantCache(t, "miss") // no evidence: nothing
		serveDirect(t, cat, chunkPath(7)).wantCache(t, "miss") // 6 is resident: one chunk
		warmed(t, cat, testArchive, 1)
		serveDirect(t, cat, chunkPath(8)).wantCache(t, "hit") // claimed: the full depth, 9 and 10
		warmed(t, cat, testArchive, 3)
		settle(t, cat)
		wantCounts(t, cat, testArchive, 3, 1, 0)
		if got := decodes(cat, testArchive); got != 5 {
			t.Fatalf("decodes = %d, want 5 (chunks 6..10)", got)
		}
	})

	t.Run("interleaved readers on two tenants keep their readahead", func(t *testing.T) {
		cat := serveBytes(t, data)
		other := ArchiveSpec{Name: "u", Open: func() (store.Backend, error) { return store.NewSnapshotBackend(data), nil }}
		if err := cat.Add(other); err != nil {
			t.Fatal(err)
		}
		names := []string{testArchive, "u"}
		for i, issued := range []int64{1, 3, 4, 5} {
			want := "hit"
			if i == 0 {
				want = "miss"
			}
			for _, name := range names {
				serveDirect(t, cat, pathOf(name, i)).wantCache(t, want)
			}
			for _, name := range names {
				warmed(t, cat, name, issued)
			}
		}
		settle(t, cat)
		for _, name := range names {
			wantCounts(t, cat, name, 5, 3, 0)
		}
	})

	t.Run("claimed alone carries a reader whose trail was evicted", func(t *testing.T) {
		// Room for three chunks in the strict LRU, so three random reads
		// flush everything the reader left behind while its window is still
		// loading.
		chunkBytes := c.chunkBytes()
		dev := &hookBackend{Backend: store.NewSnapshotBackend(data)}
		cat := serveOne(t, dev.spec(), withRenderedBytes(3*chunkBytes+chunkBytes/2))
		serveDirect(t, cat, chunkPath(7)).wantCache(t, "miss") // a seek; opens the archive
		serveDirect(t, cat, chunkPath(8)).wantCache(t, "miss")
		warmed(t, cat, testArchive, 1) // chunk 9; resident: 9* 8 7
		release := dev.holdFrom(t, c, 10)
		serveDirect(t, cat, chunkPath(9)).wantCache(t, "hit") // claimed: 10 and 11 take off and park
		waitUntil(t, "the window to take off", func() bool { return cat.CacheStats().Loads == 5 })
		for _, i := range []int{1, 3, 5} {
			serveDirect(t, cat, chunkPath(i)).wantCache(t, "miss") // evicts 7, 8, 9 in turn
		}
		release()
		warmed(t, cat, testArchive, 3) // resident: 11* 10* 5
		if got := cat.CacheStats().Evictions; got != 5 {
			t.Fatalf("%d evictions, want 5 (7, 8, 9, then 1 and 3)", got)
		}
		serveDirect(t, cat, chunkPath(10)).wantCache(t, "hit") // 9 is gone: only the claim says "sequential"
		warmed(t, cat, testArchive, 4)                         // chunk 12, two ahead: the full depth
		serveDirect(t, cat, chunkPath(11)).wantCache(t, "hit")
		warmed(t, cat, testArchive, 5)
		serveDirect(t, cat, chunkPath(12)).wantCache(t, "hit")
		settle(t, cat)
		wantCounts(t, cat, testArchive, 5, 4, 0)
	})
}

// TestPanickingLoadFailsOneRequest: a panic under materialize — here the
// backend's, it could as well be the decoder's on a hostile archive — runs on
// the cache's loader goroutine, out of reach of net/http's per-connection
// recovery. It must cost the one request a 500, and a readahead load one
// issued-and-wasted, not the process.
func TestPanickingLoadFailsOneRequest(t *testing.T) {
	c := containerOf(t, 4, nil)
	data, lo, hi := c.data, c.info(t, 1), c.info(t, 2)
	dev := &hookBackend{Backend: store.NewSnapshotBackend(data)}
	cat := serveOne(t, dev.spec())
	serveDirect(t, cat, chunkPath(3)).wantCache(t, "miss") // opens the archive; a random read, no readahead
	boom := func(off int64) error {
		if off >= lo.Offset && off < hi.Offset {
			panic("backend bug")
		}
		return nil
	}
	dev.hook.Store(&boom)

	if r := serveDirect(t, cat, chunkPath(1)); r.status != http.StatusInternalServerError {
		t.Fatalf("foreground load that panics: status %d, want 500", r.status)
	}
	if got := cat.Metrics().Snapshot().Counter(obs.CtrServeErrors, "chunk"); got != 1 {
		t.Fatalf("serve_errors = %d, want 1", got)
	}
	if r := serveDirect(t, cat, "/healthz"); r.status != http.StatusOK {
		t.Fatalf("/healthz after a panic: status %d", r.status)
	}

	serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss") // its readahead of chunk 1 panics
	warmed(t, cat, testArchive, 1)
	wantCounts(t, cat, testArchive, 1, 0, 1)
	if cat.CacheStats().Len != 2 {
		t.Fatalf("%d chunks resident, want 2 (a panicked load caches nothing)", cat.CacheStats().Len)
	}

	// The worker pool is alive: the device recovers and a sequential reader
	// is warmed again.
	dev.hook.Store(nil)
	serveDirect(t, cat, chunkPath(1)).wantCache(t, "miss")
	warmed(t, cat, testArchive, 2)
	serveDirect(t, cat, chunkPath(2)).wantCache(t, "hit")
	if cat.Metrics().Snapshot().Gauge(obs.GaugeServeBreakerOpen, testArchive) != 0 {
		t.Fatal("a panicked load fed the breaker")
	}
}

// TestPrefetchIdleAfterClose: Close leaves the catalog usable for foreground
// requests, and those requests neither queue readahead nobody would run nor
// grow any other prefetcher state.
func TestPrefetchIdleAfterClose(t *testing.T) {
	cat := serveBytes(t, containerOf(t, 4, nil).data)
	cat.Close()
	for i := 0; i < 3; i++ {
		serveDirect(t, cat, chunkPath(i)).wantCache(t, "miss")
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
	cat := serveBytes(t, containerOf(t, 4, nil).data)
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

// nullWriter is a reusable ResponseWriter that discards the body. Like the
// server's writer over a connection it takes write deadlines, so the hot path
// measured is the one a real response runs.
type nullWriter struct{ h http.Header }

func (w *nullWriter) SetWriteDeadline(time.Time) error { return nil }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}
