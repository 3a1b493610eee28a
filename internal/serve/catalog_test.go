package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videoapp/internal/faultio"
	"videoapp/internal/obs"
	"videoapp/internal/store"
)

// fetch is get with headers: one GET, fully drained.
func fetch(t testing.TB, client *http.Client, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// chaosCatalog is the acceptance trio: one archive per backend kind, the
// third behind a faultio decorator with a seeded corruption profile.
type chaosCatalog struct {
	names  []string       // catalog order: disk, mem, flaky
	chunks map[string]int // archive name -> chunk count
	data   map[string][]byte
	seed   int64
	pol    store.FaultPolicy
}

func buildChaosCatalog(t *testing.T) *chaosCatalog {
	t.Helper()
	cc := &chaosCatalog{
		names: []string{"disk", "mem", "flaky"},
		chunks: map[string]int{
			"disk":  3,
			"mem":   2,
			"flaky": 4,
		},
		data: map[string][]byte{},
		pol:  chaosPolicy(),
	}
	for name, n := range cc.chunks {
		cc.data[name] = buildArchiveBytes(t, n)
	}
	cc.seed = findChaosSeed(t, cc.data["flaky"])
	return cc
}

// specs returns fresh ArchiveSpecs for one catalog instance. Open funcs
// return fresh backends each call (lazy reopen contract); the flaky
// archive's faultio decorator restarts from the same seed, so identical
// request sequences replay identical faults.
func (cc *chaosCatalog) specs(t *testing.T, dir string) []ArchiveSpec {
	t.Helper()
	path := filepath.Join(dir, "disk.vacs")
	if _, err := os.Stat(path); err != nil {
		if err := os.WriteFile(path, cc.data["disk"], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pol := cc.pol
	return []ArchiveSpec{
		{Name: "disk", Open: func() (store.Backend, error) { return store.OpenFileBackend(path, false) }},
		{Name: "mem", Open: func() (store.Backend, error) { return store.NewMemBackend(cc.data["mem"]), nil }},
		{
			Name: "flaky",
			Open: func() (store.Backend, error) {
				return faultio.Wrap(store.NewSnapshotBackend(cc.data["flaky"]), chaosProfile(cc.seed)), nil
			},
			FaultPolicy: &pol,
		},
	}
}

// chunkResp is one replayed response, everything a client can observe.
type chunkResp struct {
	Archive  string
	Chunk    int
	Status   int
	Degraded string
	Body     string
}

// replay runs the fixed sequential request order — every chunk of every
// archive, archives in catalog order — against a fresh catalog.
func (cc *chaosCatalog) replay(t *testing.T, dir string) []chunkResp {
	t.Helper()
	cat, err := NewCatalog(cc.specs(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()
	var out []chunkResp
	for _, name := range cc.names {
		for i := 0; i < cc.chunks[name]; i++ {
			status, body, hdr := fetch(t, ts.Client(), fmt.Sprintf("%s/v1/archives/%s/chunks/%d", ts.URL, name, i))
			out = append(out, chunkResp{
				Archive:  name,
				Chunk:    i,
				Status:   status,
				Degraded: hdr.Get("X-Videoapp-Degraded"),
				Body:     string(body),
			})
		}
	}
	return out
}

// TestCatalogChaos is the multi-archive acceptance test: a catalog serving
// three archives on three different backends — a read-only file, a memory
// region, and a snapshot behind a faultio decorator with a seeded
// corruption profile — takes mixed traffic from 32 concurrent clients.
// Required properties:
//
//   - replay determinism: two fresh catalogs under the same seed answer the
//     same sequential request order with byte-identical bodies, statuses
//     and degradation headers, with at least one degraded response;
//   - availability: the concurrent run answers no 5xx other than 503, and
//     clean-backend responses are byte-identical to the serial reference;
//   - tenancy: per-archive decode/request counters are labeled by archive,
//     the serve_catalog_open_archives gauge tracks all three opens, and the
//     shared decoded-chunk cache stays under its byte budget while evicting
//     across archives.
func TestCatalogChaos(t *testing.T) {
	cc := buildChaosCatalog(t)
	dir := t.TempDir()

	// Byte-identical replay under the same seed.
	r1 := cc.replay(t, dir)
	r2 := cc.replay(t, dir)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same-seed replays differ:\n%+v\n%+v", r1, r2)
	}
	nDegraded := 0
	for _, r := range r1 {
		if r.Status != http.StatusOK {
			t.Fatalf("replay %s/%d: status %d, want 200", r.Archive, r.Chunk, r.Status)
		}
		if r.Degraded != "" {
			nDegraded++
			if r.Archive != "flaky" {
				t.Fatalf("clean archive %q answered degraded (%s)", r.Archive, r.Degraded)
			}
		}
	}
	if nDegraded == 0 {
		t.Fatal("vetted seed produced no degraded response through the catalog")
	}

	// Serial reference bodies for the clean backends.
	ref := map[string][][]byte{}
	for _, name := range []string{"disk", "mem"} {
		a, err := store.OpenArchiveBackend(bytes.NewReader(cc.data[name]))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cc.chunks[name]; i++ {
			ref[name] = append(ref[name], wantChunkBody(t, a, i))
		}
	}

	// The concurrent run: 32 clients × 24 requests, archives interleaved,
	// under a cache budget far below the working set so archives contend
	// for (and evict each other from) the shared cache.
	// Readahead stays on — the chaos contract must hold with prefetch
	// issuing background loads.
	const budget = int64(96 << 10)
	cat, err := NewCatalog(cc.specs(t, dir), WithCacheBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()

	const clients = 32
	const perClient = 24
	var wg sync.WaitGroup
	var served, degraded atomic.Int64
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for r := 0; r < perClient; r++ {
				name := cc.names[(c+r)%len(cc.names)]
				i := (c*perClient + r) % cc.chunks[name]
				resp, err := client.Get(fmt.Sprintf("%s/v1/archives/%s/chunks/%d", ts.URL, name, i))
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", c, r, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: reading body: %w", c, r, err)
					return
				}
				served.Add(1)
				if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
					errs <- fmt.Errorf("%s/%d: status %d (only 503 is an acceptable 5xx): %s",
						name, i, resp.StatusCode, body)
					return
				}
				if resp.StatusCode == http.StatusOK {
					if got := resp.Header.Get("X-Archive-Name"); got != name {
						errs <- fmt.Errorf("%s/%d: X-Archive-Name = %q", name, i, got)
						return
					}
					if want, clean := ref[name]; clean && !bytes.Equal(body, want[i]) {
						errs <- fmt.Errorf("%s/%d: body diverged from serial reference", name, i)
						return
					}
				}
				if h := resp.Header.Get("X-Videoapp-Degraded"); h != "" {
					degraded.Add(1)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s/%d: degraded response with status %d", name, i, resp.StatusCode)
						return
					}
					if name != "flaky" {
						errs <- fmt.Errorf("clean archive %q answered degraded (%s)", name, h)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := served.Load(); got != clients*perClient {
		t.Fatalf("served %d of %d requests", got, clients*perClient)
	}

	// Tenancy accounting: all three archives open and gauged, per-archive
	// labeled counters, shared cache at or under budget after evictions.
	if got := cat.OpenArchives(); got != 3 {
		t.Fatalf("OpenArchives = %d, want 3", got)
	}
	snap := cat.Metrics().Snapshot()
	if got := snap.Gauge(obs.GaugeCatalogOpenArchives, ""); got != 3 {
		t.Fatalf("%s = %v, want 3", obs.GaugeCatalogOpenArchives, got)
	}
	for _, name := range cc.names {
		if snap.Counter(obs.CtrServeDecodes, name) == 0 {
			t.Fatalf("no %s decodes counted for archive %q", obs.CtrServeDecodes, name)
		}
		if snap.Counter(obs.CtrServeCacheMisses, name) == 0 {
			t.Fatalf("no cache misses counted for archive %q", name)
		}
	}
	cs := cat.CacheStats()
	if records := cat.syntax.Stats().Cost; cs.Cost+records > budget {
		t.Fatalf("shared cache cost %d + parse records %d over budget %d", cs.Cost, records, budget)
	}
	if cs.Evictions == 0 {
		t.Fatal("working set over budget evicted nothing")
	}
	if names := cat.Names(); !reflect.DeepEqual(names, []string{"disk", "flaky", "mem"}) {
		t.Fatalf("Names() = %v", names)
	}
}

// TestCatalogIdleClose pins the idle-close lifecycle: a lazily-opened
// archive closes after IdleTimeout of disuse (and only then), the
// open-archives gauge tracks it, and the next request transparently
// reopens a fresh generation — the pre-close cache entries are never
// reused, so the chunk decodes again.
func TestCatalogIdleClose(t *testing.T) {
	data := buildArchiveBytes(t, 2)
	const idle = 50 * time.Millisecond
	cat, err := NewCatalog([]ArchiveSpec{
		{Name: "m", Open: func() (store.Backend, error) { return store.NewMemBackend(data), nil }},
	}, WithIdleTimeout(idle), WithPrefetch(0)) // readahead off: decode count is pinned
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()

	if got := cat.OpenArchives(); got != 0 {
		t.Fatalf("OpenArchives = %d before any request, want 0 (lazy open)", got)
	}
	status, body, _ := fetch(t, ts.Client(), ts.URL+"/v1/archives/m/chunks/0")
	if status != http.StatusOK {
		t.Fatalf("first read: status %d: %s", status, body)
	}
	if got := cat.OpenArchives(); got != 1 {
		t.Fatalf("OpenArchives = %d after request, want 1", got)
	}

	// Not yet idle: a sweep right now closes nothing.
	if n := cat.CloseIdle(time.Now()); n != 0 {
		t.Fatalf("CloseIdle before timeout closed %d archives", n)
	}
	// The client has the whole body a moment before the handler returns
	// and drops its pin on the tenant; a pinned tenant is never idle.
	v, _ := cat.tenants.Load("m")
	tn := v.(*tenant)
	waitUntil(t, "the handler to release its pin", func() bool { return tn.refs.Load() == 0 })
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
	status, _, _ = fetch(t, ts.Client(), ts.URL+"/v1/archives/m/chunks/0")
	if status != http.StatusOK {
		t.Fatalf("post-reopen read: status %d", status)
	}
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
	data := buildArchiveBytes(t, 2)
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

	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()

	status, _, hdr := fetch(t, ts.Client(), ts.URL+"/v1/archives/first/chunks/0")
	if status != http.StatusOK || hdr.Get("X-Archive-Name") != "first" {
		t.Fatalf("first archive: status %d archive %q, want 200 from %q", status, hdr.Get("X-Archive-Name"), "first")
	}

	// The listing shows both, sorted, and tracks openness.
	status, body, _ := fetch(t, ts.Client(), ts.URL+"/v1/archives")
	if status != http.StatusOK {
		t.Fatalf("listing: status %d", status)
	}
	var listing struct {
		Archives []struct {
			Name string `json:"name"`
			Open bool   `json:"open"`
		} `json:"archives"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("listing not JSON: %v: %s", err, body)
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
	status, body, hdr = fetch(t, ts.Client(), ts.URL+"/v1/archives/second/chunks/0")
	if status != http.StatusNotFound {
		t.Fatalf("removed archive: status %d, want 404", status)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "archive_not_found" ||
		hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("removed archive error body %q (Content-Type %q, parse %v)", body, hdr.Get("Content-Type"), err)
	}
	// The survivor still serves.
	status, _, _ = fetch(t, ts.Client(), ts.URL+"/v1/archives/first/chunks/0")
	if status != http.StatusOK {
		t.Fatalf("surviving archive: status %d", status)
	}
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
	data := buildArchiveBytes(t, 1)
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
	data := buildArchiveBytes(t, 1)
	spec := ArchiveSpec{Name: "n", Open: func() (store.Backend, error) { return store.NewMemBackend(data), nil }}
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
	data := buildArchiveBytes(t, 1)
	open := func() (store.Backend, error) { return store.NewMemBackend(data), nil }
	cat, err := NewCatalog([]ArchiveSpec{
		{Name: "a", Open: open},
		{Name: "b", Open: open},
	}, WithIdleTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()

	// Drain responses without t.Fatal: these run off the test goroutine,
	// and the property under test is only "nothing wedges".
	get := func(url string) {
		resp, err := ts.Client().Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	const iters = 60
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w {
				case 0:
					get(ts.URL + "/v1/archives")
				case 1:
					get(fmt.Sprintf("%s/v1/archives/%s/chunks/0", ts.URL, []string{"a", "b"}[i%2]))
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
	data := buildArchiveBytes(t, 2)
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
	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()

	status, body, hdr := fetch(t, ts.Client(), ts.URL+"/v1/archives/detached/chunks/0")
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("detached archive: status %d retry-after %q, want 503 with hint", status, hdr.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Code != "read_failed" {
		t.Fatalf("detached archive error body %q (parse %v)", body, err)
	}
	// Healthy tenants are unaffected.
	if status, _, _ := fetch(t, ts.Client(), ts.URL+"/v1/archives/ok/chunks/0"); status != http.StatusOK {
		t.Fatalf("healthy archive: status %d", status)
	}
	// The medium comes back; the next request opens it.
	down.Store(false)
	if status, _, _ := fetch(t, ts.Client(), ts.URL+"/v1/archives/detached/chunks/0"); status != http.StatusOK {
		t.Fatalf("recovered archive: status %d", status)
	}
	if got := cat.OpenArchives(); got != 2 {
		t.Fatalf("OpenArchives = %d, want 2", got)
	}
}

// TestIdleSweeperSurvivesTinyTimeout is the regression for the sweeper
// panic: a 1 ns idle timeout halves to a zero ticker interval, which used
// to panic in the sweeper goroutine and take the server down. It must
// serve and drain cleanly.
func TestIdleSweeperSurvivesTinyTimeout(t *testing.T) {
	cat := serveBytes(t, buildArchiveBytes(t, 1), WithIdleTimeout(1))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cat.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	for i := 0; i < 2; i++ {
		if status, body, _ := fetch(t, http.DefaultClient, url+chunkPath(0)); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
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
// budget together are all resident after one pass of a catalog with the
// default shard count, whatever the hash seed each new catalog draws. Each
// chunk costs 40 % of an eighth of the budget — what one of eight hash shards
// held when the budget was split over them, and how the ledger's probe of six
// 30-frame chunks sits in a default 64 MiB catalog. Split, about one catalog
// in four hashed three of the six chunks into one shard and evicted one of
// them during the first pass.
func TestDefaultCacheKeepsEveryChunkThatFits(t *testing.T) {
	const chunks, catalogs = 6, 200
	data := buildArchiveBytes(t, chunks)
	chunkBytes := int64(len(wantChunkBody(t, openBytes(t, data), 0)))
	spec := ArchiveSpec{Name: testArchive, Open: func() (store.Backend, error) { return store.NewSnapshotBackend(data), nil }}
	for n := 0; n < catalogs; n++ {
		// Readahead off: every first request is a foreground miss.
		cat, err := NewCatalog([]ArchiveSpec{spec}, withRenderedBytes(8*chunkBytes*5/2), WithPrefetch(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chunks; i++ {
			mustGet(t, cat, i, "miss")
		}
		for i := 0; i < chunks; i++ {
			if status, xc := chunkGet(t, cat, testArchive, i); status != http.StatusOK || xc != "hit" {
				t.Fatalf("catalog %d chunk %d: status %d X-Cache %q on the second pass, want 200 hit (%d evictions)",
					n, i, status, xc, cat.CacheStats().Evictions)
			}
		}
		cat.Close()
	}
}
