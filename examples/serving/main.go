// Serving demonstrates the concurrent archive read path: a synthetic video
// is streamed into a chunked VACS archive, a one-entry serving catalog is
// started over it, and a fleet of concurrent HTTP clients reads every chunk
// — hammering one hot chunk on purpose. The run prints the server's own observability:
// requests served, cache hit rate, and the number of actual decodes, which
// stays at one per chunk however many clients stampede it (singleflight).
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"videoapp"
)

func main() {
	// 1. Build a chunked archive on disk, one closed GOP per chunk.
	dir, err := os.MkdirTemp("", "videoapp-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo.vacs")

	seq, err := videoapp.GenerateTestVideo("crew_like", 160, 96, 32)
	if err != nil {
		log.Fatal(err)
	}
	params := videoapp.DefaultParams()
	params.GOPSize = 8
	p := videoapp.NewPipeline(videoapp.WithParams(params))
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	meta, stats, err := p.StreamToArchive(context.Background(), videoapp.SequenceSource(seq), f)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archived %dx%d, %.4f cells/pixel\n", meta.W, meta.H, stats.CellsPerPixel)

	// 2. Serve it: a catalog of one archive, opened lazily over the file
	// backend on the first request.
	const name = "demo"
	cat, err := videoapp.NewCatalog([]videoapp.ArchiveSpec{{
		Name: name,
		Open: func() (videoapp.Backend, error) { return videoapp.OpenFileBackend(path, false) },
	}},
		videoapp.WithCacheBytes(32<<20),
		videoapp.WithRequestTimeout(10*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cat.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cat.Serve(ctx, l) }()
	base := "http://" + l.Addr().String() + "/v1/archives/" + name
	chunks := (len(seq.Frames) + params.GOPSize - 1) / params.GOPSize
	fmt.Printf("serving %d chunks (%d frames) on %s\n", chunks, len(seq.Frames), base)

	// 3. Concurrent clients: half read random chunks, half stampede chunk 0.
	const clients = 24
	var wg sync.WaitGroup
	var served, bytesOut int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for j := 0; j < 8; j++ {
				i := 0 // the hot chunk
				if c%2 == 0 {
					i = rng.Intn(chunks)
				}
				resp, err := http.Get(fmt.Sprintf("%s/chunks/%d", base, i))
				if err != nil {
					log.Fatal(err)
				}
				n, _ := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					log.Fatalf("chunk %d: status %d", i, resp.StatusCode)
				}
				mu.Lock()
				served++
				bytesOut += n
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	// 4. Report what the read path did: with the whole archive cache-
	// resident, every chunk was decoded exactly once no matter how many
	// clients pulled it.
	cs := cat.CacheStats()
	fmt.Printf("served %d responses, %.1f MiB\n", served, float64(bytesOut)/(1<<20))
	fmt.Printf("cache: %.0f%% hit rate, %d decodes for %d chunks, %d bytes resident\n",
		100*cs.HitRate(), cs.Loads, chunks, cs.Cost)
	if int(cs.Loads) != chunks {
		log.Fatalf("expected %d decodes, got %d", chunks, cs.Loads)
	}

	// 5. Graceful shutdown: cancel drains in-flight connections.
	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained cleanly")
}
