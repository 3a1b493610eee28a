package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"videoapp/internal/cache"
)

// evictChunk drops chunk i of the (only) archive from the decoded-chunk
// cache, forcing the next request for it down the cold path.
func evictChunk(c *Catalog, i int) {
	c.cache.RemoveIf(func(k cache.Keyed[int]) bool { return k.Key == i })
}

// BenchmarkServeChunk measures one GET of a chunk through the full
// handler stack (routing, instrumentation, cache): "hot" serves from the
// decoded-chunk cache, "cold" pays the archive read + decode + y4m render
// on every iteration.
func BenchmarkServeChunk(b *testing.B) {
	s := serveBytes(b, buildArchiveBytes(b, 2))
	req := httptest.NewRequest(http.MethodGet, chunkPath(0), nil)

	run := func(b *testing.B, evict bool) {
		b.ReportAllocs()
		// Warm the cache so "hot" never decodes inside the timed loop.
		warm := httptest.NewRecorder()
		s.Handler().ServeHTTP(warm, req)
		if warm.Code != http.StatusOK {
			b.Fatalf("warm-up status %d", warm.Code)
		}
		b.SetBytes(int64(warm.Body.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if evict {
				b.StopTimer()
				evictChunk(s, 0)
				b.StartTimer()
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	}
	b.Run("hot", func(b *testing.B) { run(b, false) })
	b.Run("cold", func(b *testing.B) { run(b, true) })
	if cs := s.CacheStats(); cs.Loads < 1 {
		b.Fatalf("cache stats %+v", cs)
	}
}

// drainPrefetch waits for the catalog's readahead queue and in-flight
// loads to go quiet, so a benchmark can evict the cache without racing a
// background insert.
func drainPrefetch(c *Catalog) {
	p := c.prefetch
	if p == nil {
		return
	}
	for len(p.jobs) > 0 || p.inFlight.Load() > 0 {
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkServeSequentialCold is the readahead workload: one client
// reading an 8-chunk archive front to back with ~2 ms of think time
// between chunks (playback pacing), starting each scan with a cold cache.
// One op is the whole scan. With prefetch on, the i+1 decode overlaps the
// client's think time instead of sitting on the next request's critical
// path; with prefetch off, every chunk pays its decode in-line.
func BenchmarkServeSequentialCold(b *testing.B) {
	const chunks = 8
	const think = 2 * time.Millisecond
	run := func(b *testing.B, options ...Option) {
		s := serveBytes(b, buildArchiveBytes(b, chunks), options...)
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			drainPrefetch(s)
			for i := 0; i < chunks; i++ {
				evictChunk(s, i)
			}
			b.StartTimer()
			for i := 0; i < chunks; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, chunkPath(i), nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("chunk %d: status %d", i, rec.Code)
				}
				if i < chunks-1 {
					time.Sleep(think)
				}
			}
		}
	}
	b.Run("prefetch", func(b *testing.B) { run(b) })
	b.Run("noprefetch", func(b *testing.B) { run(b, WithPrefetch(0)) })
}

// BenchmarkArchiveReadChunk measures the raw lock-free archive read that
// the server sits on, without decode or HTTP.
func BenchmarkArchiveReadChunk(b *testing.B) {
	a := openBytes(b, buildArchiveBytes(b, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.ReadChunk(i % a.NumChunks()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeChunkParallel drives the hot path from parallel clients,
// the shape of the serving workload the read path is built for.
func BenchmarkServeChunkParallel(b *testing.B) {
	s := serveBytes(b, buildArchiveBytes(b, 2))
	warm := httptest.NewRecorder()
	s.Handler().ServeHTTP(warm, httptest.NewRequest(http.MethodGet, chunkPath(0), nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm-up status %d", warm.Code)
	}
	b.ReportAllocs()
	b.SetBytes(int64(warm.Body.Len()))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodGet, chunkPath(0), nil)
		for pb.Next() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
	if s.CacheStats().Loads == 0 {
		b.Fatal("no loads recorded")
	}
}
