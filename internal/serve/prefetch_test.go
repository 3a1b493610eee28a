package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"videoapp/internal/cache"
	"videoapp/internal/obs"
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
	// the cache (alongside chunk 0) without any further request. A worker
	// counts its load as issued only after the cache has stored it, so the
	// counter is part of the condition, not a check after it.
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

// TestPrefetchDisabled: WithPrefetch(0) builds no prefetcher, sequential
// reads all decode on demand, and no prefetch counters move.
func TestPrefetchDisabled(t *testing.T) {
	s := serveBytes(t, buildArchiveBytes(t, 3), WithPrefetch(0))
	if s.prefetch != nil {
		t.Fatal("WithPrefetch(0) still built a prefetcher")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		status, _ := get(t, ts.Client(), ts.URL+chunkPath(i))
		if status != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, status)
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.Counter(obs.CtrServeDecodes, testArchive); got != 3 {
		t.Fatalf("decodes = %d, want 3 (no readahead)", got)
	}
	if got := snap.CounterTotal(obs.CtrServePrefetchIssued); got != 0 {
		t.Fatalf("serve_prefetch_issued = %d with readahead disabled", got)
	}
}

// prefetchFixture builds a one-tenant catalog with readahead workers
// running and returns the catalog, its prefetcher, and the tenant's cache
// space after the lazy open.
func prefetchFixture(t *testing.T, chunks int, options ...Option) (*Catalog, *prefetcher, string) {
	t.Helper()
	cat := serveBytes(t, buildArchiveBytes(t, chunks), options...)
	if cat.prefetch == nil {
		t.Fatal("fixture catalog has no prefetcher")
	}
	_, _, space, release, err := cat.acquire(testArchive)
	if err != nil {
		t.Fatal(err)
	}
	release()
	return cat, cat.prefetch, space
}

// TestPrefetchNeverFiresThroughOpenBreaker: a job executing against a
// tenant whose breaker is open is dropped before any archive or cache
// work — nothing cached, nothing issued, and the breaker untouched.
func TestPrefetchNeverFiresThroughOpenBreaker(t *testing.T) {
	cat, p, space := prefetchFixture(t, 3)
	cat.mu.Lock()
	tn := cat.tenants[testArchive]
	cat.mu.Unlock()
	now := time.Now()
	for tn.breaker.allow(now) {
		tn.breaker.failure(now)
	}

	p.track(testArchive, space, 1)
	p.execute(prefetchJob{tenant: testArchive, space: space, index: 1})

	if cache.In(cat.cache, space).Contains(1) {
		t.Fatal("prefetch cached a chunk through an open breaker")
	}
	snap := cat.Metrics().Snapshot()
	if got := snap.CounterTotal(obs.CtrServePrefetchIssued); got != 0 {
		t.Fatalf("serve_prefetch_issued = %d through an open breaker", got)
	}
	if got := snap.Counter(obs.CtrServeDecodes, testArchive); got != 0 {
		t.Fatalf("decodes = %d, want 0 (the breaker must shed readahead)", got)
	}
}

// TestPrefetchNeverFiresOnRetiredTenant: jobs queued before a Remove die
// at execution time — the re-acquire finds the tenant gone — and the
// Remove itself sweeps the tracking table.
func TestPrefetchNeverFiresOnRetiredTenant(t *testing.T) {
	cat, p, space := prefetchFixture(t, 3)
	p.track(testArchive, space, 1)
	if err := cat.Remove(testArchive); err != nil {
		t.Fatal(err)
	}
	p.execute(prefetchJob{tenant: testArchive, space: space, index: 1})

	if cache.In(cat.cache, space).Contains(1) {
		t.Fatal("prefetch cached a chunk for a removed tenant")
	}
	snap := cat.Metrics().Snapshot()
	if got := snap.CounterTotal(obs.CtrServePrefetchIssued); got != 0 {
		t.Fatalf("serve_prefetch_issued = %d on a retired tenant", got)
	}
	p.mu.Lock()
	tracked := len(p.state)
	p.mu.Unlock()
	if tracked != 0 {
		t.Fatalf("%d targets still tracked after Remove + drop", tracked)
	}
}

// TestPrefetchStaleGenerationDropped: a job scheduled under one open
// generation is dropped when the archive was since reopened under a new
// cache space.
func TestPrefetchStaleGenerationDropped(t *testing.T) {
	cat, p, space := prefetchFixture(t, 3, WithIdleTimeout(time.Millisecond))
	time.Sleep(2 * time.Millisecond)
	if n := cat.CloseIdle(time.Now()); n != 1 {
		t.Fatalf("CloseIdle closed %d, want 1", n)
	}
	// Reopen: the tenant gets a fresh generation, so `space` is stale.
	_, _, space2, release, err := cat.acquire(testArchive)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if space2 == space {
		t.Fatalf("reopen kept cache space %q", space)
	}
	p.execute(prefetchJob{tenant: testArchive, space: space, index: 1})
	if cache.In(cat.cache, space).Contains(1) || cache.In(cat.cache, space2).Contains(1) {
		t.Fatal("stale-generation job still cached a chunk")
	}
}

// TestPrefetchPastEndOfArchive: readahead beyond the last chunk is
// dropped by the Info probe, uncounted.
func TestPrefetchPastEndOfArchive(t *testing.T) {
	cat, p, space := prefetchFixture(t, 2)
	p.track(testArchive, space, 99)
	p.execute(prefetchJob{tenant: testArchive, space: space, index: 99})
	snap := cat.Metrics().Snapshot()
	if got := snap.CounterTotal(obs.CtrServePrefetchIssued); got != 0 {
		t.Fatalf("serve_prefetch_issued = %d past the end of the archive", got)
	}
}

// TestPrefetchOutcomeAccounting drives the tracked-state machine
// directly: a loaded target claimed by a hit is useful, claimed absent is
// wasted, re-armed after aging out unused is wasted, and a pending claim
// counts neither.
func TestPrefetchOutcomeAccounting(t *testing.T) {
	cat, p, space := prefetchFixture(t, 2)
	useful := func() int64 { return cat.Metrics().Snapshot().Counter(obs.CtrServePrefetchUseful, testArchive) }
	wasted := func() int64 { return cat.Metrics().Snapshot().Counter(obs.CtrServePrefetchWasted, testArchive) }

	// Loaded then served from cache: useful.
	p.track(testArchive, space, 1)
	p.markLoaded(prefetchKey{space, 1})
	p.claim(testArchive, space, 1, true)
	if useful() != 1 || wasted() != 0 {
		t.Fatalf("after useful claim: useful=%d wasted=%d", useful(), wasted())
	}
	// Claiming again is a no-op: the target was forgotten.
	p.claim(testArchive, space, 1, true)
	if useful() != 1 {
		t.Fatalf("double claim counted twice: useful=%d", useful())
	}

	// Loaded but evicted before the client arrived: wasted.
	p.track(testArchive, space, 2)
	p.markLoaded(prefetchKey{space, 2})
	p.claim(testArchive, space, 2, false)
	if wasted() != 1 {
		t.Fatalf("evicted-before-use claim: wasted=%d, want 1", wasted())
	}

	// Loaded, never claimed, re-tracked while absent from the cache: the
	// earlier readahead aged out unused.
	p.track(testArchive, space, 3)
	p.markLoaded(prefetchKey{space, 3})
	if !p.track(testArchive, space, 3) {
		t.Fatal("re-track of an aged-out target refused")
	}
	if wasted() != 2 {
		t.Fatalf("aged-out re-track: wasted=%d, want 2", wasted())
	}

	// Still pending at claim time (the foreground coalesced onto the
	// readahead flight): neither useful nor wasted.
	p.claim(testArchive, space, 3, false)
	if useful() != 1 || wasted() != 2 {
		t.Fatalf("pending claim moved counters: useful=%d wasted=%d", useful(), wasted())
	}
}

// TestPrefetchSchedulesOncePerTarget: a pending target is not re-queued
// by the next foreground request over the same window.
func TestPrefetchSchedulesOncePerTarget(t *testing.T) {
	_, p, space := prefetchFixture(t, 4)
	if !p.track(testArchive, space, 2) {
		t.Fatal("first track refused")
	}
	if p.track(testArchive, space, 2) {
		t.Fatal("pending target re-armed")
	}
}
