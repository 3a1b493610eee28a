package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"videoapp/internal/obs"
	"videoapp/internal/store"
)

func TestServeEndpoints(t *testing.T) {
	c := containerOf(t, 3, nil)
	a := openBytes(t, c.data)
	s := serveBytes(t, c.data)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	r := fetch(t, ts.Client(), ts.URL+"/healthz")
	if r.status != http.StatusOK || string(r.body) != "ok\n" {
		t.Fatalf("healthz: %d %q", r.status, r.body)
	}

	r = fetch(t, ts.Client(), ts.URL+"/v1/archives/"+testArchive)
	if r.status != http.StatusOK {
		t.Fatalf("archive: status %d", r.status)
	}
	var idx archiveIndex
	if err := json.Unmarshal(r.body, &idx); err != nil {
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
		if err := wantBody(c.want)(fetch(t, ts.Client(), ts.URL+chunkPath(i))); err != nil {
			t.Fatal(err)
		}
	}

	r = fetch(t, ts.Client(), ts.URL+chunkPath(1)+"/meta")
	if r.status != http.StatusOK {
		t.Fatalf("chunk meta: status %d", r.status)
	}
	var info store.ChunkInfo
	if err := json.Unmarshal(r.body, &info); err != nil {
		t.Fatal(err)
	}
	if want := c.info(t, 1); info != want {
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
		r := fetch(t, ts.Client(), ts.URL+tc.path)
		if r.status != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", tc.path, r.status)
		}
		if got := r.header.Get("Content-Type"); got != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", tc.path, got)
		}
		var eb errorBody
		if err := json.Unmarshal(r.body, &eb); err != nil {
			t.Fatalf("%s: body %q is not a JSON error object: %v", tc.path, r.body, err)
		}
		if eb.Code != tc.code || eb.Error == "" {
			t.Fatalf("%s: error body %+v, want code %q and a message", tc.path, eb, tc.code)
		}
	}

	r = fetch(t, ts.Client(), ts.URL+"/metrics")
	if r.status != http.StatusOK || !bytes.Contains(r.body, []byte("serve_requests")) {
		t.Fatalf("metrics: %d %q", r.status, r.body[:min(len(r.body), 200)])
	}
	r = fetch(t, ts.Client(), ts.URL+"/metrics?format=json")
	if r.status != http.StatusOK || !json.Valid(r.body) {
		t.Fatalf("metrics json: %d, valid=%v", r.status, json.Valid(r.body))
	}
}

// TestServeStampedeDecodesOnce pins the acceptance criterion: many
// concurrent clients hammering one cold chunk cause exactly one decode
// (singleflight), and every client receives bytes identical to the serial
// read path.
func TestServeStampedeDecodesOnce(t *testing.T) {
	c := containerOf(t, 2, nil)
	s := serveBytes(t, c.data)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 32
	runClients(t, clients, 1, overSocket(t, ts), func(int, int) string { return chunkPath(1) }, wantBody(c.want))
	if cs := s.CacheStats(); cs.Loads != 1 {
		t.Fatalf("stampede of %d clients ran %d decodes, want exactly 1 (singleflight)", clients, cs.Loads)
	}
	if got := s.Metrics().Snapshot().Counter(obs.CtrServeDecodes, testArchive); got != 1 {
		t.Fatalf("serve_chunk_decodes = %d, want 1", got)
	}
}

// TestServeConcurrentRandomChunks drives 32 clients over random chunks and
// checks every response against the serial baseline, while the cache stays
// within its budget.
func TestServeConcurrentRandomChunks(t *testing.T) {
	c := containerOf(t, 3, nil)
	// Budget of ~1.5 chunks forces eviction churn under concurrency.
	budget := c.chunkBytes() * 3 / 2
	s := serveBytes(t, c.data, withRenderedBytes(budget))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	runClients(t, 32, 6, overSocket(t, ts), func(c, r int) string { return chunkPath((c + r) % 3) }, wantBody(c.want))
	if cost := s.CacheStats().Cost; cost > budget+2 {
		t.Fatalf("cache cost %d exceeds budget", cost)
	}
}

// TestCacheEvictionRefetches: with a cache that holds one chunk, serving
// A, B, A decodes A twice — eviction is observable through the decode
// counter — yet responses stay correct.
func TestCacheEvictionRefetches(t *testing.T) {
	c := containerOf(t, 2, nil)
	// The budget fits exactly one chunk; readahead off so the load count is
	// exactly the three foreground requests.
	s := serveBytes(t, c.data, withRenderedBytes(c.chunkBytes()+16), WithPrefetch(0))
	for _, i := range []int{0, 1, 0} {
		if err := wantBody(c.want)(serveDirect(t, s, chunkPath(i))); err != nil {
			t.Fatal(err)
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
	s := serveBytes(t, containerOf(t, 2, nil).data)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()

	url := "http://" + l.Addr().String()
	if r := fetch(t, http.DefaultClient, url+chunkPath(0)); r.status != http.StatusOK {
		t.Fatalf("chunk 0: status %d", r.status)
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
	cat := serveBytes(t, containerOf(t, 1, nil).data)
	for _, path := range []string{"/v1/archive", "/v1/chunks/0", "/v1/chunks/0/meta"} {
		if r := serveDirect(t, cat, path); r.status != http.StatusNotFound {
			t.Fatalf("GET %s -> %d, want 404", path, r.status)
		}
	}
}

// TestClosedArchive503: an archive closed under a request that already
// holds it (Remove's deferred close racing a slow reader, say) turns the
// chunk read into a 503 rather than a panic or a hang.
func TestClosedArchive503(t *testing.T) {
	s := serveBytes(t, containerOf(t, 2, nil).data)
	_, a, _, release, err := s.acquire(testArchive)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if r := serveDirect(t, s, chunkPath(0)); r.status != http.StatusServiceUnavailable || !bytes.Contains(r.body, []byte("archive_closed")) {
		t.Fatalf("closed archive served status %d %s, want 503 archive_closed", r.status, r.body)
	}
}

// TestWithObserverSeesServeEvents: an observer attached with WithObserver
// receives every serve-layer counter the catalog's own aggregator does — here
// after a miss, a hit and a 404.
func TestWithObserverSeesServeEvents(t *testing.T) {
	attached := obs.NewMetrics()
	cat := serveBytes(t, containerOf(t, 1, nil).data, WithObserver(attached), WithPrefetch(0))
	serveDirect(t, cat, chunkPath(0)).wantCache(t, "miss")
	serveDirect(t, cat, chunkPath(0)).wantCache(t, "hit")
	if r := serveDirect(t, cat, chunkPath(1)); r.status != http.StatusNotFound {
		t.Fatalf("chunk 1 of a one-chunk archive: status %d, want 404", r.status)
	}
	serveCounters := func(m *obs.Metrics) (out []obs.CounterStat) {
		for _, c := range m.Snapshot().Counters {
			if strings.HasPrefix(c.Name, "serve_") {
				out = append(out, c)
			}
		}
		return out
	}
	own, got := serveCounters(cat.Metrics()), serveCounters(attached)
	if snap := cat.Metrics().Snapshot(); snap.CounterTotal(obs.CtrServeCacheMisses) != 1 ||
		snap.CounterTotal(obs.CtrServeCacheHits) != 1 || snap.Counter(obs.CtrServeErrors, "chunk") != 1 {
		t.Fatalf("the catalog's own counters %+v, want one miss, one hit and one chunk error", own)
	}
	if !reflect.DeepEqual(got, own) {
		t.Fatalf("the attached observer saw serve counters\n%+v\nthe catalog's own are\n%+v", got, own)
	}
}
