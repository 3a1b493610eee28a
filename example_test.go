package videoapp_test

// Runnable documentation for the public API (go test runs these and checks
// the output).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"

	"videoapp"
)

// The shortest useful workflow: encode, analyze, partition, report density.
func ExamplePipeline() {
	seq, _ := videoapp.GenerateTestVideo("news_like", 64, 48, 6)
	params := videoapp.DefaultParams()
	params.GOPSize = 6
	params.SearchRange = 8
	p := videoapp.NewPipeline(videoapp.WithParams(params))
	res, _ := p.ProcessContext(context.Background(), seq)
	fmt.Println("frames:", len(res.Video.Frames))
	fmt.Println("partitions:", len(res.Partitions))
	fmt.Println("density positive:", res.Stats.CellsPerPixel > 0)
	// Output:
	// frames: 6
	// partitions: 6
	// density positive: true
}

// Importance is monotone within each frame — the §4.4 pivot property.
func ExampleAnalyzeContext() {
	seq, _ := videoapp.GenerateTestVideo("crew_like", 64, 48, 4)
	p := videoapp.DefaultParams()
	p.GOPSize = 4
	p.SearchRange = 8
	v, _ := videoapp.EncodeContext(context.Background(), seq, p, 1)
	an, _ := videoapp.AnalyzeContext(context.Background(), v, 1)
	fmt.Println("monotone:", an.CheckMonotone() == nil)
	fmt.Println("first frame head >= tail:",
		an.Importance[0][0] >= an.Importance[0][len(an.Importance[0])-1])
	// Output:
	// monotone: true
	// first frame head >= tail: true
}

// The concurrent read path: stream a video into a chunked archive, declare
// it as the one entry of a serving catalog, and serve decoded chunks over
// HTTP to many clients at once. The decoded-chunk cache coalesces the
// stampede, so the hot chunk is decoded exactly once.
func Example_serve() {
	seq, _ := videoapp.GenerateTestVideo("news_like", 64, 48, 8)
	p := videoapp.NewPipeline(videoapp.WithParams(func() videoapp.Params {
		pp := videoapp.DefaultParams()
		pp.GOPSize = 4
		pp.SearchRange = 8
		return pp
	}()))
	var archive bytes.Buffer
	_, _, err := p.StreamToArchive(context.Background(), videoapp.SequenceSource(seq), &archive)
	if err != nil {
		fmt.Println("archive:", err)
		return
	}

	// Readahead off so the only decode on the books is the stampede's own.
	cat, _ := videoapp.NewCatalog([]videoapp.ArchiveSpec{{
		Name: "news",
		Open: func() (videoapp.Backend, error) { return videoapp.NewSnapshotBackend(archive.Bytes()), nil },
	}}, videoapp.WithPrefetch(0))
	defer cat.Close()
	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()

	// Sixteen clients stampede the same chunk concurrently.
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/archives/news/chunks/0")
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()

	stats := cat.CacheStats()
	fmt.Println("archives open:", cat.OpenArchives())
	fmt.Println("decodes under stampede:", stats.Loads)
	// Output:
	// archives open: 1
	// decodes under stampede: 1
}

// Containers survive a marshal/unmarshal round trip bit-exactly.
func ExampleMarshal() {
	seq, _ := videoapp.GenerateTestVideo("news_like", 64, 48, 3)
	p := videoapp.DefaultParams()
	p.GOPSize = 3
	p.SearchRange = 8
	v, _ := videoapp.EncodeContext(context.Background(), seq, p, 1)
	data := videoapp.Marshal(v)
	v2, err := videoapp.Unmarshal(data)
	fmt.Println("err:", err)
	fmt.Println("same payload bits:", v2.TotalPayloadBits() == v.TotalPayloadBits())
	// Output:
	// err: <nil>
	// same payload bits: true
}
