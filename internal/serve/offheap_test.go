package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"videoapp/internal/cache"
	"videoapp/internal/codec"
	"videoapp/internal/obs"
	"videoapp/internal/offheap"
	"videoapp/internal/store"
)

// mappingOf is the size of the mapping that holds an n-byte rendering.
func mappingOf(n int) int64 {
	page := os.Getpagesize()
	return int64((n + page - 1) / page * page)
}

// serveDirect runs one request through the catalog's handler and returns
// the recorded response.
func serveDirect(c *Catalog, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestEvictionWhileServing races eight clients over a real socket — half
// scanning, half reading at random, readahead on — against a rendered tier
// that holds three and a half chunks, so renderings are evicted while
// responses are still writing them. Every body must equal the reference
// render byte for byte; once everything is quiet no buffer may be pinned and
// every mapping is either resident or idle in the pool.
func TestEvictionWhileServing(t *testing.T) {
	const chunks, clients, requests = 8, 8, 40
	data := buildArchiveBytes(t, chunks)
	a := openBytes(t, data)
	want := make([][]byte, chunks)
	for i := range want {
		want[i] = wantChunkBody(t, a, i)
	}
	chunkBytes := int64(len(want[0]))
	cat := serveBytes(t, data, withRenderedBytes(3*chunkBytes+chunkBytes/2), WithPrefetch(2))
	srv := httptest.NewServer(cat.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for r := 0; r < requests; r++ {
				i := (c + r) % chunks
				if c%2 == 1 {
					i = rng.Intn(chunks)
				}
				resp, err := srv.Client().Get(srv.URL + chunkPath(i))
				if err != nil {
					errs <- err
					return
				}
				var body bytes.Buffer
				_, err = body.ReadFrom(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					errs <- err
					return
				case resp.StatusCode != http.StatusOK:
					errs <- fmt.Errorf("client %d chunk %d: status %d", c, i, resp.StatusCode)
					return
				case !bytes.Equal(body.Bytes(), want[i]):
					errs <- fmt.Errorf("client %d chunk %d: %d-byte body differs from the %d-byte reference render", c, i, body.Len(), len(want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A client has its body before the handler returns and unpins.
	waitUntil(t, "readahead and responses to finish", func() bool {
		s := cat.render.Stats()
		return len(cat.prefetch.jobs) == 0 && cat.prefetch.inFlight.Load() == 0 && s.Pinned == 0 && s.Mapped == s.Held+s.Idle
	})
	cs, rs := cat.CacheStats(), cat.render.Stats()
	if cs.Evictions == 0 || cs.Hits == 0 {
		t.Fatalf("vacuous run: %+v", cs)
	}
	if rs.Pinned != 0 || rs.Mapped != rs.Held+rs.Idle || rs.Held != int64(cs.Len)*mappingOf(int(chunkBytes)) {
		t.Fatalf("quiet pool %+v with %d renderings resident, want nothing pinned and every mapping resident or idle", rs, cs.Len)
	}
}

// TestRenderedTierStaysOffTheHeap fills a catalog's rendered tier — 24
// tenants over one eight-chunk archive, offered more chunks than the tier
// holds — and requires the Go heap in use to grow by less than a quarter of
// the tier's budget: the renderings are mapped, only their bookkeeping and
// the parse records are heap objects.
func TestRenderedTierStaysOffTheHeap(t *testing.T) {
	if !offheap.OffHeap {
		t.Skip("renderings live on the heap in this build")
	}
	const tenants, chunks = 24, 8
	data := buildArchiveBytes(t, chunks)
	chunkBytes := int64(len(wantChunkBody(t, openBytes(t, data), 0)))
	rendered := 160 * chunkBytes
	specs := make([]ArchiveSpec, tenants)
	for i := range specs {
		specs[i] = ArchiveSpec{Name: "a" + strconv.Itoa(i), Open: func() (store.Backend, error) { return store.NewSnapshotBackend(data), nil }}
	}
	cat, err := NewCatalog(specs, withRenderedBytes(rendered), WithPrefetch(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	for _, s := range specs { // the archives' indexes are not the tier's
		if rec := serveDirect(cat, "/v1/archives/"+s.Name); rec.Code != http.StatusOK {
			t.Fatalf("opening %s: status %d", s.Name, rec.Code)
		}
	}
	heapInuse := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the frame pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	before := heapInuse()
	for _, s := range specs {
		for i := 0; i < chunks; i++ {
			if rec := serveDirect(cat, fmt.Sprintf("/v1/archives/%s/chunks/%d", s.Name, i)); rec.Code != http.StatusOK {
				t.Fatalf("%s chunk %d: status %d", s.Name, i, rec.Code)
			}
		}
	}
	grew := heapInuse() - before
	if cost := cat.CacheStats().Cost; cost < rendered-chunkBytes {
		t.Fatalf("rendered tier holds %d bytes, not filled to its %d", cost, rendered)
	}
	if grew >= rendered/4 {
		t.Fatalf("filling a %d-byte rendered tier grew the heap in use by %d bytes, want < %d", rendered, grew, rendered/4)
	}
	runtime.KeepAlive(cat)
}

// TestDroppedCatalogReturnsItsMappings: a catalog that becomes unreachable
// with renderings resident and idle — never closed — gives every mapping
// back to the system once the collector has found it.
func TestDroppedCatalogReturnsItsMappings(t *testing.T) {
	if !offheap.OffHeap {
		t.Skip("renderings live on the heap in this build")
	}
	data := buildArchiveBytes(t, 4)
	var mine, during int64
	pool := func() *offheap.Pool {
		cat, err := NewCatalog([]ArchiveSpec{{Name: testArchive, Open: func() (store.Backend, error) { return store.NewSnapshotBackend(data), nil }}}, WithPrefetch(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if rec := serveDirect(cat, chunkPath(i)); rec.Code != http.StatusOK {
				t.Fatalf("chunk %d: status %d", i, rec.Code)
			}
		}
		cat.cache.RemoveIf(func(k cache.Keyed[int]) bool { return k.Key == 0 }) // one idle mapping
		s := cat.render.Stats()
		if s.Held == 0 || s.Idle == 0 {
			t.Fatalf("nothing to return: %+v", s)
		}
		mine, during = s.Mapped, offheap.Mapped()
		return cat.render // the pool does not keep its catalog reachable
	}()
	// Other tests' dropped catalogs may return theirs meanwhile; none maps.
	waitUntil(t, "the dropped catalog's mappings to return", func() bool {
		runtime.GC()
		return pool.Stats().Mapped == 0 && offheap.Mapped() <= during-mine
	})
}

// TestShortRenderIntoRecycledBuffer: a rendering that lands in a recycled
// mapping whose previous use was longer, and filled every byte of it,
// answers with exactly its own bytes — length, Content-Length and body.
func TestShortRenderIntoRecycledBuffer(t *testing.T) {
	data := buildArchiveBytes(t, 1)
	want := wantChunkBody(t, openBytes(t, data), 0)
	size := mappingOf(len(want))
	if size == int64(len(want)) {
		t.Fatalf("fixture: a %d-byte rendering fills its mapping; nothing could be stale", len(want))
	}
	cat := serveBytes(t, data, WithPrefetch(0))
	dirty, err := cat.render.Get(int(size))
	if err != nil {
		t.Fatal(err)
	}
	copy(dirty.Bytes(), bytes.Repeat([]byte{0xff}, int(size)))
	dirty.Release()
	mapped := cat.render.Stats().Mapped
	rec := serveDirect(cat, chunkPath(0))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("status %d, Content-Length %s, %d-byte body; want the %d-byte reference render",
			rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len(), len(want))
	}
	if s := cat.render.Stats(); s.Mapped != mapped || s.Idle != 0 {
		t.Fatalf("the rendering did not reuse the idle mapping: %+v (%d mapped before)", s, mapped)
	}
}

// TestRenderGaugesPublished: /metrics carries both tiers' pool gauges,
// equal to the pools' own counts on a quiet catalog, and the Go heap in use.
func TestRenderGaugesPublished(t *testing.T) {
	cat := serveBytes(t, buildArchiveBytes(t, 2), WithPrefetch(0))
	for i := 0; i < 2; i++ {
		serveDirect(cat, chunkPath(i))
	}
	body := serveDirect(cat, "/metrics").Body.String()
	snap, s, rec := cat.Metrics().Snapshot(), cat.render.Stats(), cat.records.Stats()
	if rec.Mapped == 0 || rec.Mapped != rec.Held+rec.Idle {
		t.Fatalf("record pool %+v after two first visits, want their records mapped and held", rec)
	}
	for name, want := range map[string]int64{
		obs.GaugeServeRenderMappedBytes: s.Mapped,
		obs.GaugeServeRenderPinnedBytes: 0,
		obs.GaugeServeRenderIdleBytes:   s.Idle,
		obs.GaugeServeSyntaxMappedBytes: rec.Mapped,
		obs.GaugeServeSyntaxPinnedBytes: 0,
		obs.GaugeGoHeapInuseBytes:       -1, // any positive value
	} {
		got := snap.Gauge(name, "")
		if !strings.Contains(body, name) || (want >= 0 && got != float64(want)) || (want < 0 && got <= 0) {
			t.Fatalf("gauge %s = %v, want %d, on /metrics:\n%s", name, got, want, body)
		}
	}
	if s.Mapped == 0 {
		t.Fatal("nothing mapped after two renderings")
	}
}

// smallSendBuffers accepts connections whose send buffer is a few KB, so a
// response outgrows what the kernel can take without the client reading.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestStalledReaderReleasesItsChunk: a client that sends a request over raw
// TCP, with a small receive buffer, and never reads the response must not
// hold the chunk it is being sent pinned past the request timeout. The
// write blocks, the write deadline (the request's) fails it, the handler
// returns and unpins, and the server closes the connection.
func TestStalledReaderReleasesItsChunk(t *testing.T) {
	// B frames put the whole video in one chunk: 32 frames, a 295 KB body.
	data := buildArchive(t, 8, func(p *codec.Params) { p.BFrames = 1 })
	const timeout = 300 * time.Millisecond
	cat := serveBytes(t, data, WithPrefetch(0), WithRequestTimeout(timeout))
	body := serveDirect(cat, chunkPath(0)) // resident: the stalled request is a hit
	if body.Code != http.StatusOK || body.Body.Len() < 256<<10 {
		t.Fatalf("warming chunk 0: status %d, %d bytes", body.Code, body.Body.Len())
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cat.Serve(ctx, smallSendBuffers{l}) }()
	defer func() {
		cancel()
		<-done
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: stalled\r\n\r\n", chunkPath(0)); err != nil {
		t.Fatal(err)
	}
	pinned := func() float64 {
		serveDirect(cat, "/metrics")
		return cat.Metrics().Snapshot().Gauge(obs.GaugeServeRenderPinnedBytes, "")
	}
	waitUntil(t, "the stalled response to pin its chunk", func() bool { return pinned() > 0 })
	start := time.Now()
	deadline := start.Add(timeout + 5*time.Second)
	for pinned() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("serve_render_pinned_bytes still %v %v after the request timed out", pinned(), time.Since(start))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The connection is closed under the client: what it reads now ends.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("the server kept the connection open after the write deadline (%d bytes read)", n)
	}
	if n >= int64(body.Body.Len()) {
		t.Fatalf("the stalled client got %d bytes, the whole %d-byte body", n, body.Body.Len())
	}
}

// recordMapping is the size of the mapping that holds the parse records of
// chunk i of the container, as a catalog of its own packs them.
func recordMapping(t *testing.T, data []byte, i int) int64 {
	t.Helper()
	cat := serveBytes(t, data, WithPrefetch(0))
	if rec := serveDirect(cat, chunkPath(i)); rec.Code != http.StatusOK {
		t.Fatalf("chunk %d: status %d", i, rec.Code)
	}
	return int64(residentRecords(t, cat, testArchive, i).buf.Size())
}

// TestRecordEvictionWhileServing is TestEvictionWhileServing for the record
// tier: eight clients over a real socket, readahead on, under a budget whose
// record tier holds three chunks' records and whose rendered tier a couple of
// renderings, so nearly every request is a cold miss that replays records
// while other misses replace and evict them. Every body must equal a fresh
// decode; once everything is quiet no record buffer may be pinned and every
// mapping is either resident or idle in the pool.
func TestRecordEvictionWhileServing(t *testing.T) {
	const chunks, clients, requests = 8, 8, 40
	data := buildArchiveBytes(t, chunks)
	a := openBytes(t, data)
	want := make([][]byte, chunks)
	for i := range want {
		want[i] = wantChunkBody(t, a, i)
	}
	cat := serveBytes(t, data, WithCacheBytes(3*syntaxShare*recordMapping(t, data, 0)), WithPrefetch(2))
	srv := httptest.NewServer(cat.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for r := 0; r < requests; r++ {
				i := (c + r) % chunks
				if c%2 == 1 {
					i = rng.Intn(chunks)
				}
				status, body := get(t, srv.Client(), srv.URL+chunkPath(i))
				if status != http.StatusOK || !bytes.Equal(body, want[i]) {
					errs <- fmt.Errorf("client %d chunk %d: status %d, %d-byte body equal to the %d-byte fresh decode %v", c, i, status, len(body), len(want[i]), bytes.Equal(body, want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitUntil(t, "readahead and decodes to finish", func() bool {
		s := cat.records.Stats()
		return len(cat.prefetch.jobs) == 0 && cat.prefetch.inFlight.Load() == 0 && s.Pinned == 0 && s.Mapped == s.Held+s.Idle
	})
	ss, rs := cat.syntax.Stats(), cat.records.Stats()
	if ss.Evictions == 0 || ss.Hits == 0 || counterTotal(cat, obs.CtrFramesReplayed) == 0 {
		t.Fatalf("vacuous run: record tier %+v, %d frames replayed", ss, counterTotal(cat, obs.CtrFramesReplayed))
	}
	if rs.Pinned != 0 || rs.Mapped != rs.Held+rs.Idle || rs.Held != ss.Cost {
		t.Fatalf("quiet record pool %+v with %d B of records resident, want nothing pinned and every mapping resident or idle", rs, ss.Cost)
	}
}

// TestRecordTierStaysOffTheHeap fills a catalog's record tier — 96 tenants
// over one archive whose one chunk is a 32-frame B-frame video, offered more
// chunks than the tier holds — and requires the Go heap in use to grow by
// less than a quarter of the filled tier: the records' bytes are mapped, only
// their per-frame keys and the tiers' bookkeeping are heap objects.
func TestRecordTierStaysOffTheHeap(t *testing.T) {
	if !offheap.OffHeap {
		t.Skip("records live on the heap in this build")
	}
	const tenants = 96
	data := buildArchive(t, 8, func(p *codec.Params) { p.BFrames = 1 })
	records := (tenants - 6) * recordMapping(t, data, 0)
	specs := make([]ArchiveSpec, tenants)
	for i := range specs {
		specs[i] = ArchiveSpec{Name: "a" + strconv.Itoa(i), Open: func() (store.Backend, error) { return store.NewSnapshotBackend(data), nil }}
	}
	cat, err := NewCatalog(specs, WithCacheBytes(records*syntaxShare), WithPrefetch(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	for _, s := range specs { // the archives' indexes are not the tier's
		if rec := serveDirect(cat, "/v1/archives/"+s.Name); rec.Code != http.StatusOK {
			t.Fatalf("opening %s: status %d", s.Name, rec.Code)
		}
	}
	heapInuse := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	before := heapInuse()
	for _, s := range specs {
		if rec := serveDirect(cat, "/v1/archives/"+s.Name+"/chunks/0"); rec.Code != http.StatusOK {
			t.Fatalf("%s chunk 0: status %d", s.Name, rec.Code)
		}
	}
	grew := heapInuse() - before
	if cost := cat.syntax.Stats().Cost; cost < records-records/16 {
		t.Fatalf("record tier holds %d bytes, not filled to its %d", cost, records)
	}
	t.Logf("filling a %d-byte record tier grew the heap in use by %d bytes", records, grew)
	if grew >= records/4 {
		t.Fatalf("filling a %d-byte record tier grew the heap in use by %d bytes, want < %d", records, grew, records/4)
	}
	runtime.KeepAlive(cat)
}
