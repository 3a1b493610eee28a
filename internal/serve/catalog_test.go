package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videoapp/internal/obs"
	"videoapp/internal/store"
)

// TestCatalogIdleClose pins the idle-close lifecycle: a lazily-opened
// archive closes after IdleTimeout of disuse (and only then), the
// open-archives gauge tracks it, and the next request transparently
// reopens a fresh generation — the pre-close cache entries are never
// reused, so the chunk decodes again.
func TestCatalogIdleClose(t *testing.T) {
	data := containerOf(t, 2, nil).data
	const idle = 50 * time.Millisecond
	cat, err := NewCatalog([]ArchiveSpec{
		{Name: "m", Open: func() (store.Backend, error) { return store.NewMemBackend(data), nil }},
	}, WithIdleTimeout(idle), WithPrefetch(0)) // readahead off: decode count is pinned
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	if got := cat.OpenArchives(); got != 0 {
		t.Fatalf("OpenArchives = %d before any request, want 0 (lazy open)", got)
	}
	serveDirect(t, cat, pathOf("m", 0)).wantCache(t, "miss")
	if got := cat.OpenArchives(); got != 1 {
		t.Fatalf("OpenArchives = %d after request, want 1", got)
	}

	// Not yet idle: a sweep right now closes nothing.
	if n := cat.CloseIdle(time.Now()); n != 0 {
		t.Fatalf("CloseIdle before timeout closed %d archives", n)
	}
	// Past the timeout (simulated clock) the sweep closes it.
	if n := cat.CloseIdle(time.Now().Add(time.Second)); n != 1 {
		t.Fatalf("CloseIdle past timeout closed %d archives, want 1", n)
	}
	if got := cat.OpenArchives(); got != 0 {
		t.Fatalf("OpenArchives = %d after idle close, want 0", got)
	}
	if got := cat.Metrics().Snapshot().Gauge(obs.GaugeCatalogOpenArchives, ""); got != 0 {
		t.Fatalf("%s = %v after idle close, want 0", obs.GaugeCatalogOpenArchives, got)
	}

	// The next request reopens transparently — and decodes again: the new
	// generation gets a fresh cache namespace, so nothing cached before the
	// close can leak into the reopened archive.
	serveDirect(t, cat, pathOf("m", 0)).wantCache(t, "miss")
	if got := cat.OpenArchives(); got != 1 {
		t.Fatalf("OpenArchives = %d after reopen, want 1", got)
	}
	if got := cat.Metrics().Snapshot().Counter(obs.CtrServeDecodes, "m"); got != 2 {
		t.Fatalf("decodes = %d, want 2 (reopen must not serve the stale generation's cache)", got)
	}
	// Both were cold misses of the same chunk, but of two opens: parse records
	// are kept per cache space and dropped with it, so the second miss parsed
	// every frame again. (Within one open a repeat miss replays:
	// TestReplayEqualsParseOnTheWire.)
	snap := cat.Metrics().Snapshot()
	if frames, replays := snap.CounterTotal(obs.CtrDecodeFrames), snap.CounterTotal(obs.CtrFramesReplayed); frames == 0 || replays != 0 {
		t.Fatalf("%d frames decoded over two cold misses, %d replayed; want > 0 and 0", frames, replays)
	}
	for _, k := range recordKeys(cat) {
		if k.Space != spaceOf(cat, "m") {
			t.Fatalf("record tier still holds %v of the closed open", k)
		}
	}
}

// TestCatalogAddRemove exercises runtime membership: name validation,
// duplicate rejection, the listing, removal with cache purge, and the 404
// JSON contract for a removed archive.
func TestCatalogAddRemove(t *testing.T) {
	data := containerOf(t, 2, nil).data
	open := func() (store.Backend, error) { return store.NewMemBackend(data), nil }
	cat, err := NewCatalog(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	for _, bad := range []ArchiveSpec{
		{Name: "", Open: open},
		{Name: "a/b", Open: open},
		{Name: "a#1", Open: open},
		{Name: "ok"}, // no Open
	} {
		if err := cat.Add(bad); err == nil {
			t.Fatalf("Add(%q) accepted an invalid spec", bad.Name)
		}
	}
	if err := cat.Add(ArchiveSpec{Name: "first", Open: open}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(ArchiveSpec{Name: "second", Open: open}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(ArchiveSpec{Name: "first", Open: open}); err == nil {
		t.Fatal("duplicate Add accepted")
	}

	r := serveDirect(t, cat, pathOf("first", 0))
	if r.status != http.StatusOK || r.header.Get("X-Archive-Name") != "first" {
		t.Fatalf("first archive: status %d archive %q, want 200 from %q", r.status, r.header.Get("X-Archive-Name"), "first")
	}

	// The listing shows both, sorted, and tracks openness.
	r = serveDirect(t, cat, "/v1/archives")
	if r.status != http.StatusOK {
		t.Fatalf("listing: status %d", r.status)
	}
	var listing struct {
		Archives []struct {
			Name string `json:"name"`
			Open bool   `json:"open"`
		} `json:"archives"`
	}
	if err := json.Unmarshal(r.body, &listing); err != nil {
		t.Fatalf("listing not JSON: %v: %s", err, r.body)
	}
	if len(listing.Archives) != 2 || listing.Archives[0].Name != "first" ||
		!listing.Archives[0].Open || listing.Archives[1].Open {
		t.Fatalf("listing = %+v", listing)
	}

	if err := cat.Remove("second"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Remove("second"); !errors.Is(err, ErrArchiveNotFound) {
		t.Fatalf("double Remove: %v, want ErrArchiveNotFound", err)
	}
	r = serveDirect(t, cat, pathOf("second", 0))
	if r.status != http.StatusNotFound {
		t.Fatalf("removed archive: status %d, want 404", r.status)
	}
	var eb errorBody
	if err := json.Unmarshal(r.body, &eb); err != nil || eb.Code != "archive_not_found" ||
		r.header.Get("Content-Type") != "application/json" {
		t.Fatalf("removed archive error body %q (Content-Type %q, parse %v)", r.body, r.header.Get("Content-Type"), err)
	}
	// The survivor still serves.
	serveDirect(t, cat, pathOf("first", 0)).wantCache(t, "hit")
}

// trackedBackend records whether the catalog has closed it.
type trackedBackend struct {
	store.Backend
	closed atomic.Bool
}

func (b *trackedBackend) Close() error {
	b.closed.Store(true)
	return b.Backend.Close()
}

// TestCatalogRemoveDefersCloseToLastRelease pins Remove's in-flight
// contract: a request that acquired the archive before Remove keeps a
// readable archive (the backend must not close under it); new requests
// answer 404 immediately; and the last release — not Remove — closes the
// backend.
func TestCatalogRemoveDefersCloseToLastRelease(t *testing.T) {
	data := containerOf(t, 1, nil).data
	tb := &trackedBackend{Backend: store.NewMemBackend(data)}
	cat, err := NewCatalog([]ArchiveSpec{
		{Name: "a", Open: func() (store.Backend, error) { return tb, nil }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	_, a, _, release, err := cat.acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if tb.closed.Load() {
		t.Fatal("Remove closed the backend with a request still in flight")
	}
	// The in-flight request still reads real bytes through the backend.
	if _, err := a.ReadChunkContext(context.Background(), 0); err != nil {
		t.Fatalf("in-flight read after Remove: %v", err)
	}
	// New requests miss: the tenant is gone even though it is still open.
	if _, _, _, _, err := cat.acquire("a"); !errors.Is(err, ErrArchiveNotFound) {
		t.Fatalf("acquire after Remove: %v, want ErrArchiveNotFound", err)
	}
	release()
	if !tb.closed.Load() {
		t.Fatal("last release did not close the removed archive's backend")
	}
	if got := cat.OpenArchives(); got != 0 {
		t.Fatalf("OpenArchives = %d after deferred close, want 0", got)
	}
}

// TestCatalogRecreatedNameGetsFreshCacheSpace pins the stale-bytes guard
// across Remove/Add: generations are catalog-global, so a tenant recreated
// under the same name (a rescan replacing a .vacs file) can never name a
// cache space any earlier open of that name used — a stale load landing
// after Remove's purge repopulates a namespace nobody reads anymore.
func TestCatalogRecreatedNameGetsFreshCacheSpace(t *testing.T) {
	spec := snapshotSpec("n", containerOf(t, 1, nil).data)
	cat, err := NewCatalog([]ArchiveSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	_, _, space1, release, err := cat.acquire("n")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := cat.Remove("n"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(spec); err != nil {
		t.Fatal(err)
	}
	_, _, space2, release, err := cat.acquire("n")
	if err != nil {
		t.Fatal(err)
	}
	release()
	if space1 == space2 {
		t.Fatalf("recreated tenant reuses cache space %q of the removed one", space1)
	}
}

// TestCatalogListingRacesLifecycle is the deadlock regression canary:
// GET /v1/archives reads tenant open-state while chunk requests lazily
// open archives, the idle sweeper closes them, and membership churns via
// Add/Remove. When membership had a mutex of its own, nesting it against
// the tenant locks in opposite orders deadlocked this; it must drain. Run
// with -race for the full effect.
func TestCatalogListingRacesLifecycle(t *testing.T) {
	data := containerOf(t, 1, nil).data
	open := func() (store.Backend, error) { return store.NewMemBackend(data), nil }
	cat, err := NewCatalog([]ArchiveSpec{
		{Name: "a", Open: open},
		{Name: "b", Open: open},
	}, WithIdleTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// The property under test is only "nothing wedges": statuses are not
	// checked.
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w {
				case 0:
					serveDirect(t, cat, "/v1/archives")
				case 1:
					serveDirect(t, cat, pathOf([]string{"a", "b"}[i%2], 0))
				case 2:
					cat.CloseIdle(time.Now().Add(time.Hour))
				case 3:
					name := fmt.Sprintf("churn%d", i%3)
					if err := cat.Add(ArchiveSpec{Name: name, Open: open}); err == nil {
						cat.Remove(name)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCatalogOpenFailure pins the unreachable-medium contract: a spec whose
// Open fails answers 503 + Retry-After with code "read_failed" (the device,
// not the data), the catalog keeps serving its healthy archives, and the
// failed tenant recovers on the next request once its medium returns.
func TestCatalogOpenFailure(t *testing.T) {
	data := containerOf(t, 2, nil).data
	var down atomic.Bool
	down.Store(true)
	cat, err := NewCatalog([]ArchiveSpec{
		{Name: "ok", Open: func() (store.Backend, error) { return store.NewMemBackend(data), nil }},
		{Name: "detached", Open: func() (store.Backend, error) {
			if down.Load() {
				return nil, errors.New("medium offline")
			}
			return store.NewMemBackend(data), nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	r := serveDirect(t, cat, pathOf("detached", 0))
	if r.status != http.StatusServiceUnavailable || r.header.Get("Retry-After") == "" {
		t.Fatalf("detached archive: status %d retry-after %q, want 503 with hint", r.status, r.header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.Unmarshal(r.body, &eb); err != nil || eb.Code != "read_failed" {
		t.Fatalf("detached archive error body %q (parse %v)", r.body, err)
	}
	// Healthy tenants are unaffected.
	serveDirect(t, cat, pathOf("ok", 0)).wantCache(t, "miss")
	// The medium comes back; the next request opens it.
	down.Store(false)
	serveDirect(t, cat, pathOf("detached", 0)).wantCache(t, "miss")
	if got := cat.OpenArchives(); got != 2 {
		t.Fatalf("OpenArchives = %d, want 2", got)
	}
}

// TestIdleSweeperSurvivesTinyTimeout is the regression for the sweeper
// panic: a 1 ns idle timeout halves to a zero ticker interval, which used
// to panic in the sweeper goroutine and take the server down. It must
// serve and drain cleanly.
func TestIdleSweeperSurvivesTinyTimeout(t *testing.T) {
	cat := serveBytes(t, containerOf(t, 1, nil).data, WithIdleTimeout(1))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cat.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	for i := 0; i < 2; i++ {
		if r := fetch(t, http.DefaultClient, url+chunkPath(0)); r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		// The sweeper is alive at its clamped interval: it closes the
		// archive the request just opened, and the next request reopens it.
		waitUntil(t, "the sweeper to close the idle archive", func() bool { return cat.OpenArchives() == 0 })
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain within 5s")
	}
}

// TestDefaultCacheKeepsEveryChunkThatFits: chunks that fit the rendered
// budget together are all resident after one pass of a fresh catalog. Each
// chunk costs 40 % of an eighth of the budget — what one of eight hash shards
// held when the budget was split over them, and how the ledger's probe of six
// 30-frame chunks sits in a default 64 MiB catalog. The tiers are one strict
// LRU each, so no hash seed decides the outcome; the catalogs are repeated to
// catch a return to hash shards, under which about one fresh catalog in five
// hashes three of the six chunks into one shard and evicts one of them
// during the first pass (48 catalogs all miss that with p ≈ 5·10⁻⁵).
func TestDefaultCacheKeepsEveryChunkThatFits(t *testing.T) {
	const chunks, catalogs = 6, 48
	c := containerOf(t, chunks, nil)
	for n := 0; n < catalogs; n++ {
		// Readahead off: every first request is a foreground miss.
		cat, err := NewCatalog([]ArchiveSpec{snapshotSpec(testArchive, c.data)}, withRenderedBytes(8*c.chunkBytes()*5/2), WithPrefetch(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chunks; i++ {
			serveDirect(t, cat, chunkPath(i)).wantCache(t, "miss")
		}
		for i := 0; i < chunks; i++ {
			if r := serveDirect(t, cat, chunkPath(i)); r.status != http.StatusOK || r.header.Get("X-Cache") != "hit" {
				t.Fatalf("catalog %d chunk %d: status %d X-Cache %q on the second pass, want 200 hit (%d evictions)",
					n, i, r.status, r.header.Get("X-Cache"), cat.CacheStats().Evictions)
			}
		}
		cat.Close()
	}
}
