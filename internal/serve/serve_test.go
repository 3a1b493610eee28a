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
	"sync"
	"testing"
	"time"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/store"
	"videoapp/internal/synth"
	"videoapp/internal/y4m"
)

// buildArchiveBytes encodes a small synthetic video and writes it into an
// in-memory VACS archive of single-GOP chunks, returning the container
// bytes.
func buildArchiveBytes(t testing.TB, gops int) []byte {
	t.Helper()
	return buildArchive(t, gops, nil)
}

// buildArchive is buildArchiveBytes with the encoder parameters adjusted by
// tune, when one is given. B frames reference across GOP boundaries, so a
// video coded with them goes into the archive whole, as its one chunk.
func buildArchive(t testing.TB, gops int, tune func(*codec.Params)) []byte {
	t.Helper()
	const gopSize = 4
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(96, 64, gops*gopSize))
	p := codec.DefaultParams()
	p.GOPSize = gopSize
	p.SearchRange = 8
	if tune != nil {
		tune(&p)
	}
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
	cw, err := store.NewChunkWriter(&buf, store.ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: gopSize, GOPsPerChunk: gopsPerChunk})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < len(v.Frames); s += gopsPerChunk * gopSize {
		e := min(s+gopsPerChunk*gopSize, len(v.Frames))
		sub := &codec.Video{Params: p, W: v.W, H: v.H, FPS: v.FPS, Frames: append([]*codec.EncodedFrame(nil), v.Frames[s:e]...)}
		sub = sub.Clone()
		sub.ShiftIndices(-s)
		if err := cw.Append(sub, parts[s:e], s); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
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

// testArchive is the name the one-archive test catalogs serve under.
const testArchive = "t"

// serveOne is the single-archive server every test here runs against: a
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
	return serveOne(t, ArchiveSpec{
		Open: func() (store.Backend, error) { return store.NewSnapshotBackend(data), nil },
	}, options...)
}

// withRenderedBytes is WithCacheBytes for a test that sizes the cache in
// rendered chunks: the budget whose rendered tier — what the parse-record
// tier's quarter leaves — is n bytes, give or take two.
func withRenderedBytes(n int64) Option { return WithCacheBytes(n + n/(syntaxShare-1) + 1) }

// chunkPath is the route of chunk i of the test archive.
func chunkPath(i int) string {
	return fmt.Sprintf("/v1/archives/%s/chunks/%d", testArchive, i)
}

// wantChunkBody renders the reference response body for chunk i: the
// fully verified chunk read, decoded serially and written as y4m.
func wantChunkBody(t testing.TB, a *store.ChunkArchive, i int) []byte {
	t.Helper()
	cr, err := a.ReadChunkContext(context.Background(), i)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Degraded) > 0 {
		t.Fatalf("reference read of chunk %d degraded: %v", i, cr.Degraded)
	}
	seq, err := codec.DecodeContext(context.Background(), cr.Video, codec.DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := y4m.Write(&buf, seq); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func get(t testing.TB, client *http.Client, url string) (int, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestServeEndpoints(t *testing.T) {
	data := buildArchiveBytes(t, 3)
	a := openBytes(t, data)
	s := serveBytes(t, data)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := get(t, ts.Client(), ts.URL+"/healthz")
	if status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", status, body)
	}

	status, body = get(t, ts.Client(), ts.URL+"/v1/archives/"+testArchive)
	if status != http.StatusOK {
		t.Fatalf("archive: status %d", status)
	}
	var idx archiveIndex
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Chunks != a.NumChunks() || idx.TotalFrames != a.TotalFrames() || len(idx.Index) != a.NumChunks() {
		t.Fatalf("index %+v does not match archive (%d chunks, %d frames)", idx, a.NumChunks(), a.TotalFrames())
	}
	if idx.Meta != a.Meta() {
		t.Fatalf("meta %+v, want %+v", idx.Meta, a.Meta())
	}

	// Every chunk's body is bit-identical to the serial read path.
	for i := 0; i < a.NumChunks(); i++ {
		status, body := get(t, ts.Client(), ts.URL+chunkPath(i))
		if status != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, status)
		}
		if want := wantChunkBody(t, a, i); !bytes.Equal(body, want) {
			t.Fatalf("chunk %d: %d bytes differ from serial decode (%d bytes)", i, len(body), len(want))
		}
	}

	status, body = get(t, ts.Client(), ts.URL+chunkPath(1)+"/meta")
	if status != http.StatusOK {
		t.Fatalf("chunk meta: status %d", status)
	}
	var info store.ChunkInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if want, _ := a.Info(1); info != want {
		t.Fatalf("chunk 1 meta %+v, want %+v", info, want)
	}

	// Unknown chunks and archives answer 404 with a JSON error object.
	for _, tc := range []struct{ path, code string }{
		{chunkPath(99), "chunk_not_found"},
		{chunkPath(-1), "chunk_not_found"},
		{"/v1/archives/" + testArchive + "/chunks/nope", "chunk_not_found"},
		{"/v1/archives/absent", "archive_not_found"},
		{"/v1/archives/absent/chunks/0", "archive_not_found"},
	} {
		resp, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", tc.path, got)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s: body %q is not a JSON error object: %v", tc.path, body, err)
		}
		if eb.Code != tc.code || eb.Error == "" {
			t.Fatalf("%s: error body %+v, want code %q and a message", tc.path, eb, tc.code)
		}
	}

	status, body = get(t, ts.Client(), ts.URL+"/metrics")
	if status != http.StatusOK || !bytes.Contains(body, []byte("serve_requests")) {
		t.Fatalf("metrics: %d %q", status, body[:min(len(body), 200)])
	}
	status, body = get(t, ts.Client(), ts.URL+"/metrics?format=json")
	if status != http.StatusOK || !json.Valid(body) {
		t.Fatalf("metrics json: %d, valid=%v", status, json.Valid(body))
	}
}

// TestServeStampedeDecodesOnce pins the acceptance criterion: many
// concurrent clients hammering one cold chunk cause exactly one decode
// (singleflight), and every client receives bytes identical to the serial
// read path.
func TestServeStampedeDecodesOnce(t *testing.T) {
	data := buildArchiveBytes(t, 2)
	s := serveBytes(t, data)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	want := wantChunkBody(t, openBytes(t, data), 1)

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			status, body := get(t, ts.Client(), ts.URL+chunkPath(1))
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", c, status)
				return
			}
			if !bytes.Equal(body, want) {
				errs <- fmt.Errorf("client %d: body differs from serial decode", c)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Loads != 1 {
		t.Fatalf("stampede of %d clients ran %d decodes, want exactly 1 (singleflight)", clients, cs.Loads)
	}
	if got := s.Metrics().Snapshot().Counter("serve_chunk_decodes", testArchive); got != 1 {
		t.Fatalf("serve_chunk_decodes = %d, want 1", got)
	}
}

// TestServeConcurrentRandomChunks drives 32 clients over random chunks and
// checks every response against the serial baseline, while the cache stays
// within its budget.
func TestServeConcurrentRandomChunks(t *testing.T) {
	data := buildArchiveBytes(t, 3)
	a := openBytes(t, data)
	want := make([][]byte, a.NumChunks())
	for i := range want {
		want[i] = wantChunkBody(t, a, i)
	}
	// Budget of ~1.5 chunks forces eviction churn under concurrency.
	s := serveBytes(t, data, withRenderedBytes(int64(len(want[0]))*3/2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				i := (c + j) % a.NumChunks()
				status, body := get(t, ts.Client(), ts.URL+chunkPath(i))
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d chunk %d: status %d", c, i, status)
					return
				}
				if !bytes.Equal(body, want[i]) {
					errs <- fmt.Errorf("client %d chunk %d: body differs", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cost := s.CacheStats().Cost; cost > int64(len(want[0]))*3/2+2 {
		t.Fatalf("cache cost %d exceeds budget", cost)
	}
}

// TestCacheEvictionRefetches: with a cache that holds one chunk, serving
// A, B, A decodes A twice — eviction is observable through the decode
// counter — yet responses stay correct.
func TestCacheEvictionRefetches(t *testing.T) {
	data := buildArchiveBytes(t, 2)
	want0 := wantChunkBody(t, openBytes(t, data), 0)
	// The budget fits exactly one chunk; readahead off so the load count is
	// exactly the three foreground requests.
	s := serveBytes(t, data, withRenderedBytes(int64(len(want0))+16), WithPrefetch(0))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, i := range []int{0, 1, 0} {
		status, body := get(t, ts.Client(), ts.URL+chunkPath(i))
		if status != http.StatusOK {
			t.Fatalf("chunk %d: status %d", i, status)
		}
		if i == 0 && !bytes.Equal(body, want0) {
			t.Fatalf("chunk 0 body differs after eviction round trip")
		}
	}
	cs := s.CacheStats()
	if cs.Loads != 3 {
		t.Fatalf("A,B,A with a one-chunk cache: %d loads, want 3 (A evicted by B)", cs.Loads)
	}
	if cs.Evictions == 0 {
		t.Fatal("expected at least one eviction")
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	s := serveBytes(t, buildArchiveBytes(t, 2))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	status, _ := get(t, http.DefaultClient, url+chunkPath(0))
	if status != http.StatusOK {
		t.Fatalf("chunk 0: status %d", status)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain within 5s")
	}
	// The listener is really gone.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestErrorMapping pins the typed-error → status + JSON error code
// translation.
func TestErrorMapping(t *testing.T) {
	cases := []struct {
		err      error
		want     int
		wantCode string
	}{
		{fmt.Errorf("x: %w", store.ErrChunkNotFound), http.StatusNotFound, "chunk_not_found"},
		{fmt.Errorf("x: %w", ErrArchiveNotFound), http.StatusNotFound, "archive_not_found"},
		{fmt.Errorf("x: %w", store.ErrArchiveClosed), http.StatusServiceUnavailable, "archive_closed"},
		// Damaged or unreadable data is repairable (scrub, mirror), so it
		// answers 503 + Retry-After rather than a 500 dead end.
		{fmt.Errorf("x: %w", store.ErrCorruptRecord), http.StatusServiceUnavailable, "corrupt_record"},
		{fmt.Errorf("x: %w", store.ErrReadFailed), http.StatusServiceUnavailable, "read_failed"},
		{context.DeadlineExceeded, http.StatusServiceUnavailable, "timeout"},
		{errors.New("opaque"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(&statusWriter{ResponseWriter: rec, status: http.StatusOK}, tc.err)
		if rec.Code != tc.want {
			t.Fatalf("%v -> %d, want %d", tc.err, rec.Code, tc.want)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Fatalf("%v: Content-Type %q, want application/json", tc.err, got)
		}
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%v: body %q is not JSON: %v", tc.err, rec.Body.String(), err)
		}
		if body.Code != tc.wantCode {
			t.Fatalf("%v: code %q, want %q", tc.err, body.Code, tc.wantCode)
		}
		if body.Error == "" {
			t.Fatalf("%v: empty error message", tc.err)
		}
		if (errors.Is(tc.err, store.ErrCorruptRecord) || errors.Is(tc.err, store.ErrReadFailed)) && rec.Header().Get("Retry-After") == "" {
			t.Fatalf("%v must advertise Retry-After", tc.err)
		}
	}
	// A hung-up client produces no write at all.
	rec := httptest.NewRecorder()
	writeError(&statusWriter{ResponseWriter: rec, status: http.StatusOK}, context.Canceled)
	if rec.Body.Len() != 0 {
		t.Fatalf("canceled request must not write a body, got %q", rec.Body.String())
	}

	// The removed single-archive routes are not mounted: they answer the
	// mux's 404 even with an archive that would have served them.
	h := serveBytes(t, buildArchiveBytes(t, 1)).Handler()
	for _, path := range []string{"/v1/archive", "/v1/chunks/0", "/v1/chunks/0/meta"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s -> %d, want 404", path, rec.Code)
		}
	}
}

// TestClosedArchive503: an archive closed under a request that already
// holds it (Remove's deferred close racing a slow reader, say) turns the
// chunk read into a 503 rather than a panic or a hang.
func TestClosedArchive503(t *testing.T) {
	s := serveBytes(t, buildArchiveBytes(t, 2))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, a, _, release, err := s.acquire(testArchive)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	status, body := get(t, ts.Client(), ts.URL+chunkPath(0))
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("archive_closed")) {
		t.Fatalf("closed archive served status %d %s, want 503 archive_closed", status, body)
	}
}
