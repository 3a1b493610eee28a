package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/obs"
	"videoapp/internal/store"
	"videoapp/internal/synth"
	"videoapp/internal/testcorpus"
	"videoapp/internal/y4m"
)

// The archive corpus: every container the tests serve is encoded once per
// test binary, with the reference render of each of its chunks and, once a
// chaos test asks, its vetted fault seed. Containers are read-only; a test
// that damages one clones its bytes first, and one that leaves a container
// or its renders changed fails in its cleanup.

// corpusGOP is the GOP size of every corpus container: 96×64 crew_like
// frames, four to a GOP.
const corpusGOP = 4

// shape names a corpus container: its GOP count and its encoder parameters.
type shape struct {
	gops int
	p    codec.Params
}

// container is one corpus entry. Without B frames each GOP is one chunk; B
// frames reference across GOP boundaries, so a video coded with them goes
// into the archive whole, as its one chunk.
type container struct {
	data []byte   // the VACS bytes
	want [][]byte // want[i]: chunk i read directly, decoded serially, written as y4m

	seedOnce sync.Once
	seed     int64 // vetted by findChaosSeed; 0 when no seed qualifies
}

// containerOf returns the corpus container of gops GOPs under the default
// parameters as tune adjusts them (nil: unadjusted), building it on first
// use, and fails t at its end if t left it or its renders changed.
func containerOf(t testing.TB, gops int, tune func(*codec.Params)) *container {
	t.Helper()
	p := codec.DefaultParams()
	p.GOPSize = corpusGOP
	p.SearchRange = 8
	if tune != nil {
		tune(&p)
	}
	return testcorpus.Of(t, shape{gops, p}, buildContainer, (*container).hash)
}

func buildContainer(t testing.TB, k shape) *container {
	t.Helper()
	gops, p := k.gops, k.p
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(96, 64, gops*corpusGOP))
	v, err := codec.EncodeParallelContext(context.Background(), seq, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := an.Partition(core.PaperAssignment())
	gopsPerChunk := 1
	if p.BFrames > 0 {
		gopsPerChunk = gops
	}
	var buf bytes.Buffer
	cw, err := store.NewChunkWriter(&buf, store.ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: corpusGOP, GOPsPerChunk: gopsPerChunk})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < len(v.Frames); s += gopsPerChunk * corpusGOP {
		e := min(s+gopsPerChunk*corpusGOP, len(v.Frames))
		sub := &codec.Video{Params: p, W: v.W, H: v.H, FPS: v.FPS, Frames: append([]*codec.EncodedFrame(nil), v.Frames[s:e]...)}
		sub = sub.Clone()
		sub.ShiftIndices(-s)
		if err := cw.Append(sub, parts[s:e], s); err != nil {
			t.Fatal(err)
		}
	}
	c := &container{data: buf.Bytes()}
	a := openBytes(t, c.data)
	for i := 0; i < a.NumChunks(); i++ {
		body, degraded, _ := directRender(t, a, i)
		if degraded != "" {
			t.Fatalf("reference read of chunk %d degraded: %s", i, degraded)
		}
		c.want = append(c.want, body)
	}
	return c
}

// hash writes the container and its renders.
func (c *container) hash(h *maphash.Hash) {
	h.Write(c.data)
	for _, b := range c.want {
		h.Write(b)
	}
}

// chunkBytes is the size of one rendered chunk (all chunks of a container
// render to the same size).
func (c *container) chunkBytes() int64 { return int64(len(c.want[0])) }

// info is the index record of chunk i.
func (c *container) info(t testing.TB, i int) store.ChunkInfo {
	t.Helper()
	info, err := openBytes(t, c.data).Info(i)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// chaosSeed is the container's fault seed, vetted once by findChaosSeed.
func (c *container) chaosSeed(t testing.TB) int64 {
	t.Helper()
	c.seedOnce.Do(func() { c.seed = findChaosSeed(c.data) })
	if c.seed == 0 {
		t.Fatal("no seed in 1..4096 produces the degraded+clean mix; retune the profile")
	}
	return c.seed
}

// openBytes opens container bytes directly — the serial reference the
// served responses are compared against.
func openBytes(t testing.TB, data []byte) *store.ChunkArchive {
	t.Helper()
	a, err := store.OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// directRender reads chunk i of a and renders exactly those frames the way
// materialize does, with no cache or record anywhere near them: the body and
// degraded verdict a response built from that read must carry.
func directRender(t testing.TB, a *store.ChunkArchive, i int) (body []byte, degraded string, v *codec.Video) {
	t.Helper()
	cr, err := a.ReadChunkContext(context.Background(), i)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := codec.DecodeContext(context.Background(), cr.Video, codec.DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := y4m.Write(&buf, seq); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), strings.Join(cr.Degraded, ","), cr.Video
}

// testArchive is the name the one-archive test catalogs serve under.
const testArchive = "t"

// serveOne is the single-archive server most tests here run against: a
// catalog of the one spec, served under testArchive and closed with the
// test.
func serveOne(t testing.TB, spec ArchiveSpec, options ...Option) *Catalog {
	t.Helper()
	spec.Name = testArchive
	cat, err := NewCatalog([]ArchiveSpec{spec}, options...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat
}

// serveBytes is serveOne over container bytes held in memory.
func serveBytes(t testing.TB, data []byte, options ...Option) *Catalog {
	t.Helper()
	return serveOne(t, snapshotSpec(testArchive, data), options...)
}

// snapshotSpec names container bytes served from memory.
func snapshotSpec(name string, data []byte) ArchiveSpec {
	return ArchiveSpec{Name: name, Open: func() (store.Backend, error) { return store.NewSnapshotBackend(data), nil }}
}

// withRenderedBytes is WithCacheBytes for a test that sizes the cache in
// rendered chunks: the budget whose rendered tier — what the parse-record
// tier's quarter leaves — is n bytes, give or take two.
func withRenderedBytes(n int64) Option { return WithCacheBytes(n + n/(syntaxShare-1) + 1) }

// pathOf is the route of chunk i of the named archive; chunkPath, of the
// test archive.
func pathOf(name string, i int) string { return fmt.Sprintf("/v1/archives/%s/chunks/%d", name, i) }

func chunkPath(i int) string { return pathOf(testArchive, i) }

// response is what a client sees of one GET.
type response struct {
	path   string
	status int
	body   []byte
	header http.Header
}

// fetch is one GET of url over a socket, its body drained. A failed round
// trip fails t — from any goroutine — and returns a response of status 0.
func fetch(t testing.TB, client *http.Client, url string) response {
	r := response{path: url}
	resp, err := client.Get(url)
	if err == nil {
		r.status, r.header = resp.StatusCode, resp.Header
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		r.status = 0
	}
	return r
}

// serveDirect is one GET of path through c's handler. Every call also
// samples the readahead accounting invariant: no load is settled twice, or
// before it is counted issued.
func serveDirect(t testing.TB, c *Catalog, path string) response {
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	issued, settled := map[string]int64{}, map[string]int64{}
	for _, ctr := range c.Metrics().Snapshot().Counters {
		switch ctr.Name {
		case obs.CtrServePrefetchIssued:
			issued[ctr.Label] = ctr.Value
		case obs.CtrServePrefetchUseful, obs.CtrServePrefetchWasted:
			settled[ctr.Label] += ctr.Value
		}
	}
	for name, n := range settled {
		if n > issued[name] {
			t.Errorf("after %s: %d of %s's readahead loads settled, %d issued", path, n, name, issued[name])
		}
	}
	return response{path: path, status: rec.Code, body: rec.Body.Bytes(), header: rec.Header()}
}

// wantCache fails t unless r is a 200 with the given X-Cache verdict.
func (r response) wantCache(t testing.TB, want string) {
	t.Helper()
	if got := r.header.Get("X-Cache"); r.status != http.StatusOK || got != want {
		t.Fatalf("%s: status %d X-Cache %q, want 200 %s", r.path, r.status, got, want)
	}
}

// runClients is the suite's one concurrent-client loop: clients goroutines
// each send requests GETs through do, client c's r-th for path(c, r), and
// check must accept every response. A client stops at its first rejected
// response, which fails t once every client is done.
func runClients(t testing.TB, clients, requests int, do func(path string) response,
	path func(c, r int) string, check func(r response) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range requests {
				if err := check(do(path(c, r))); err != nil {
					errs[c] = fmt.Errorf("client %d request %d: %w", c, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// overSocket is runClients' do over a real socket to srv.
func overSocket(t testing.TB, srv *httptest.Server) func(string) response {
	return func(path string) response { return fetch(t, srv.Client(), srv.URL+path) }
}

// wantBody is a runClients check: a 200 whose body is want's render of the
// chunk the request named.
func wantBody(want [][]byte) func(response) error {
	return func(r response) error {
		_, tail, _ := strings.Cut(r.path, "/chunks/")
		if i, err := strconv.Atoi(tail); r.status != http.StatusOK || err != nil || !bytes.Equal(r.body, want[i]) {
			return fmt.Errorf("%s: status %d, %d-byte body; want 200 and the reference render", r.path, r.status, len(r.body))
		}
		return nil
	}
}
