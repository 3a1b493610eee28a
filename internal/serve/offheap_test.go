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
	"testing"
	"time"

	"videoapp/internal/cache"
	"videoapp/internal/codec"
	"videoapp/internal/obs"
	"videoapp/internal/offheap"
)

// mappingOf is the size of the mapping that holds an n-byte rendering.
func mappingOf(n int) int64 {
	page := os.Getpagesize()
	return int64((n + page - 1) / page * page)
}

// recordMapping is the size of the mapping that holds the parse records of
// chunk i of the container, as a catalog of its own packs them.
func recordMapping(t *testing.T, data []byte, i int) int64 {
	t.Helper()
	cat := serveBytes(t, data, WithPrefetch(0))
	serveDirect(t, cat, chunkPath(i)).wantCache(t, "miss")
	return int64(residentRecords(t, cat, testArchive, i).buf.Size())
}

// bFrames codes a corpus container with B frames: the whole video is then
// one chunk.
func bFrames(p *codec.Params) { p.BFrames = 1 }

// tier is one of a catalog's two cache tiers, as the tests that run once per
// tier see it.
type tier struct {
	name   string
	stats  func(*Catalog) cache.Stats
	pool   func(*Catalog) *offheap.Pool
	budget func(n int64) Option // the catalog budget whose share for this tier is n bytes
	// held is the mapping its resident entries hold: a rendering's is its
	// length page-rounded (the chunks of one container render to one size),
	// a chunk's records are charged theirs.
	held func(*Catalog) int64
}

var renderedTier = tier{
	name:   "rendered",
	stats:  func(c *Catalog) cache.Stats { return c.cache.Stats() },
	pool:   func(c *Catalog) *offheap.Pool { return c.render },
	budget: withRenderedBytes,
	held: func(c *Catalog) int64 {
		s := c.cache.Stats()
		if s.Len == 0 {
			return 0
		}
		return int64(s.Len) * mappingOf(int(s.Cost)/s.Len)
	},
}

var recordTier = tier{
	name:   "record",
	stats:  func(c *Catalog) cache.Stats { return c.syntax.Stats() },
	pool:   func(c *Catalog) *offheap.Pool { return c.records },
	budget: func(n int64) Option { return WithCacheBytes(n * syntaxShare) },
	held:   func(c *Catalog) int64 { return c.syntax.Stats().Cost },
}

// evictionWhileServing races eight clients over a real socket — half
// scanning, half reading at random, readahead on — against a catalog whose
// tier holds tierBytes of c's eight chunks, so its entries are evicted while
// responses still write them (renderings) or decodes still replay them
// (records). Every body must equal the reference render byte for byte; once
// everything is quiet no buffer of the tier may be pinned and every mapping
// is either resident or idle in the pool.
func evictionWhileServing(t *testing.T, tr tier, c *container, tierBytes int64) {
	const chunks, clients, requests = 8, 8, 40
	cat := serveBytes(t, c.data, tr.budget(tierBytes), WithPrefetch(2))
	srv := httptest.NewServer(cat.Handler())
	defer srv.Close()
	rngs := make([]*rand.Rand, clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	runClients(t, clients, requests, overSocket(t, srv), func(c, r int) string {
		if c%2 == 1 {
			return chunkPath(rngs[c].Intn(chunks))
		}
		return chunkPath((c + r) % chunks)
	}, wantBody(c.want))
	// A client has its body before the handler returns and unpins.
	waitUntil(t, "readahead, responses and decodes to finish", func() bool {
		s := tr.pool(cat).Stats()
		return len(cat.prefetch.jobs) == 0 && cat.prefetch.inFlight.Load() == 0 && s.Pinned == 0 && s.Mapped == s.Held+s.Idle
	})
	ts, ps := tr.stats(cat), tr.pool(cat).Stats()
	if replayed := counterTotal(cat, obs.CtrFramesReplayed); ts.Evictions == 0 || ts.Hits == 0 || replayed == 0 {
		t.Fatalf("vacuous run: %s tier %+v, %d frames replayed", tr.name, ts, replayed)
	}
	if held := tr.held(cat); ps.Pinned != 0 || ps.Mapped != ps.Held+ps.Idle || ps.Held != held {
		t.Fatalf("quiet %s pool %+v with %d B of entries resident, want nothing pinned and every mapping resident or idle", tr.name, ps, held)
	}
}

// TestEvictionWhileServing is evictionWhileServing for the rendered tier,
// which holds three and a half chunks.
func TestEvictionWhileServing(t *testing.T) {
	c := containerOf(t, 8, nil)
	evictionWhileServing(t, renderedTier, c, 3*c.chunkBytes()+c.chunkBytes()/2)
}

// TestRecordEvictionWhileServing is evictionWhileServing for the record tier:
// it holds three chunks' records and the rendered tier a couple of
// renderings, so nearly every request is a cold miss that replays records
// while other misses replace and evict them.
func TestRecordEvictionWhileServing(t *testing.T) {
	c := containerOf(t, 8, nil)
	evictionWhileServing(t, recordTier, c, 3*recordMapping(t, c.data, 0))
}

// tierStaysOffTheHeap fills a catalog's tier — tenants archives over c, each
// offered every chunk once, to a tier that holds fewer entries of entry bytes
// than that — and requires the Go heap in use to grow by less than a quarter
// of the filled tier: the tier's bytes are mapped; only their bookkeeping,
// and the other tier's entries, are heap objects.
func tierStaysOffTheHeap(t *testing.T, tr tier, c *container, tenants, entries int, entry int64) {
	if !offheap.OffHeap {
		t.Skip("the tiers live on the heap in this build")
	}
	tierBytes := int64(entries) * entry
	specs := make([]ArchiveSpec, tenants)
	for i := range specs {
		specs[i] = snapshotSpec("a"+strconv.Itoa(i), c.data)
	}
	cat, err := NewCatalog(specs, tr.budget(tierBytes), WithPrefetch(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	for _, s := range specs { // the archives' indexes are not the tier's
		if r := serveDirect(t, cat, "/v1/archives/"+s.Name); r.status != http.StatusOK {
			t.Fatalf("opening %s: status %d", s.Name, r.status)
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
		for i := range c.want {
			if r := serveDirect(t, cat, pathOf(s.Name, i)); r.status != http.StatusOK {
				t.Fatalf("%s chunk %d: status %d", s.Name, i, r.status)
			}
		}
	}
	grew := heapInuse() - before
	if cost := tr.stats(cat).Cost; cost <= tierBytes-entry {
		t.Fatalf("%s tier holds %d bytes, not filled to its %d", tr.name, cost, tierBytes)
	}
	if grew >= tierBytes/4 {
		t.Fatalf("filling a %d-byte %s tier grew the heap in use by %d bytes, want < %d", tierBytes, tr.name, grew, tierBytes/4)
	}
	runtime.KeepAlive(cat)
}

// TestRenderedTierStaysOffTheHeap: 24 tenants over one eight-chunk archive
// offer 192 renderings to a tier that holds 160.
func TestRenderedTierStaysOffTheHeap(t *testing.T) {
	c := containerOf(t, 8, nil)
	tierStaysOffTheHeap(t, renderedTier, c, 24, 160, c.chunkBytes())
}

// TestRecordTierStaysOffTheHeap: 48 tenants over one archive whose one chunk
// is a 32-frame B-frame video offer their records to a tier that holds 42.
// The heap grows by about 4 KB per tenant of bookkeeping, under two thirds of
// the bound; records packed on the heap instead grow it by 4.5 times the
// bound.
func TestRecordTierStaysOffTheHeap(t *testing.T) {
	const tenants = 48
	c := containerOf(t, 8, bFrames)
	tierStaysOffTheHeap(t, recordTier, c, tenants, tenants-6, recordMapping(t, c.data, 0))
}

// TestDroppedCatalogReturnsItsMappings: a catalog that becomes unreachable
// with renderings resident and idle — never closed — gives every mapping
// back to the system once the collector has found it.
func TestDroppedCatalogReturnsItsMappings(t *testing.T) {
	if !offheap.OffHeap {
		t.Skip("renderings live on the heap in this build")
	}
	data := containerOf(t, 4, nil).data
	var mine, during int64
	pool := func() *offheap.Pool {
		cat, err := NewCatalog([]ArchiveSpec{snapshotSpec(testArchive, data)}, WithPrefetch(0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			serveDirect(t, cat, chunkPath(i)).wantCache(t, "miss")
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
	c := containerOf(t, 1, nil)
	want := c.want[0]
	size := mappingOf(len(want))
	if size == int64(len(want)) {
		t.Fatalf("fixture: a %d-byte rendering fills its mapping; nothing could be stale", len(want))
	}
	cat := serveBytes(t, c.data, WithPrefetch(0))
	dirty, err := cat.render.Get(int(size))
	if err != nil {
		t.Fatal(err)
	}
	copy(dirty.Bytes(), bytes.Repeat([]byte{0xff}, int(size)))
	dirty.Release()
	mapped := cat.render.Stats().Mapped
	r := serveDirect(t, cat, chunkPath(0))
	if r.status != http.StatusOK || r.header.Get("Content-Length") != strconv.Itoa(len(want)) || !bytes.Equal(r.body, want) {
		t.Fatalf("status %d, Content-Length %s, %d-byte body; want the %d-byte reference render",
			r.status, r.header.Get("Content-Length"), len(r.body), len(want))
	}
	if s := cat.render.Stats(); s.Mapped != mapped || s.Idle != 0 {
		t.Fatalf("the rendering did not reuse the idle mapping: %+v (%d mapped before)", s, mapped)
	}
}

// TestRenderGaugesPublished: /metrics carries both tiers' pool gauges,
// equal to the pools' own counts on a quiet catalog, and the Go heap in use.
func TestRenderGaugesPublished(t *testing.T) {
	cat := serveBytes(t, containerOf(t, 2, nil).data, WithPrefetch(0))
	for i := 0; i < 2; i++ {
		serveDirect(t, cat, chunkPath(i)).wantCache(t, "miss")
	}
	body := string(serveDirect(t, cat, "/metrics").body)
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
	c := containerOf(t, 8, bFrames)
	const timeout = 300 * time.Millisecond
	cat := serveBytes(t, c.data, WithPrefetch(0), WithRequestTimeout(timeout))
	serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss") // resident: the stalled request is a hit
	if size := len(c.want[0]); size < 256<<10 {
		t.Fatalf("fixture: a %d-byte body fits the socket buffers", size)
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
		serveDirect(t, cat, "/metrics")
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
	// The connection is closed under the client: what it reads now ends. A
	// receive window opened wide drains what the kernels still hold at once,
	// instead of 4 KB per round trip.
	conn.(*net.TCPConn).SetReadBuffer(1 << 20)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("the server kept the connection open after the write deadline (%d bytes read)", n)
	}
	if n >= int64(len(c.want[0])) {
		t.Fatalf("the stalled client got %d bytes, the whole %d-byte body", n, len(c.want[0]))
	}
}
