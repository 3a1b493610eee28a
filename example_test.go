package videoapp_test

// Runnable documentation for the public API (go test runs these and checks
// the output).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"

	"videoapp"
	"videoapp/internal/bitio"
	"videoapp/internal/codec"
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

// The paper's central question (§8): for the same storage saving, does
// approximation cost less quality than compressing harder? Three designs
// store one video: CRF 24 with uniform (precise-grade) correction, CRF 26
// with uniform correction, and CRF 24 with VideoApp's variable correction
// (Table 1). Quality is the worst of five storage round trips.
func Example_approximationVsCompression() {
	ctx := context.Background()
	seq, _ := videoapp.GenerateTestVideo("mobcal_like", 96, 64, 12)
	measure := func(crf int, assignment videoapp.ClassAssignment) (cellsPerPixel, worstPSNR float64) {
		params := videoapp.DefaultParams()
		params.CRF = crf
		p := videoapp.NewPipeline(videoapp.WithParams(params), videoapp.WithAssignment(assignment))
		res, _ := p.ProcessContext(ctx, seq)
		worstPSNR = math.Inf(1)
		for run := int64(0); run < 5; run++ {
			dec, _, _ := res.StoreRoundTripContext(ctx, run)
			psnr, _ := videoapp.PSNRContext(ctx, seq, dec, 0)
			worstPSNR = min(worstPSNR, psnr)
		}
		return res.Stats.CellsPerPixel, worstPSNR
	}
	baseCells, basePSNR := measure(24, videoapp.UniformAssignment())
	compCells, compPSNR := measure(26, videoapp.UniformAssignment())
	approxCells, approxPSNR := measure(24, videoapp.PaperAssignment())
	fmt.Println("compressing harder saves storage:", compCells < baseCells)
	fmt.Println("approximating saves storage:", approxCells < baseCells)
	fmt.Println("approximating loses less quality:", basePSNR-approxPSNR < basePSNR-compPSNR)
	// Output:
	// compressing harder saves storage: true
	// approximating saves storage: true
	// approximating loses less quality: true
}

// An SNR-scalable encoding: a coarse base layer plus a refinement layer no
// prediction ever references. The same number of bit flips costs far less
// quality in the refinement, where the damage stays in the frame that
// carries it, than in the base, where it propagates through the group of
// pictures — which makes the refinement the approximate store's cheapest
// class.
func Example_layered() {
	ctx := context.Background()
	seq, _ := videoapp.GenerateTestVideo("stockholm_like", 96, 64, 12)
	p := videoapp.DefaultParams()
	p.CRF = 32
	lv, _ := codec.EncodeLayered(seq, p, 8)
	base, _ := videoapp.DecodeContext(ctx, lv.Base, 0)
	clean, _ := codec.DecodeLayered(ctx, lv)
	pBase, _ := videoapp.PSNRContext(ctx, seq, base, 0)
	pClean, _ := videoapp.PSNRContext(ctx, seq, clean, 0)

	// 24 flips into the refinement, then 24 into the base.
	const flips = 24
	rng := rand.New(rand.NewSource(7))
	enhDamaged, _ := codec.DecodeLayered(ctx, &codec.LayeredVideo{
		Base: lv.Base, EnhQPDelta: lv.EnhQPDelta, Enh: corruptStreams(rng, lv.Enh, flips), EnhMBs: lv.EnhMBs,
	})
	damagedBase := lv.Base.Clone()
	payloads := make([][]byte, len(damagedBase.Frames))
	for i, f := range damagedBase.Frames {
		payloads[i] = f.Payload
	}
	for i, pl := range corruptStreams(rng, payloads, flips) {
		damagedBase.Frames[i].Payload = pl
	}
	baseDamaged, _ := codec.DecodeLayered(ctx, &codec.LayeredVideo{
		Base: damagedBase, EnhQPDelta: lv.EnhQPDelta, Enh: lv.Enh, EnhMBs: lv.EnhMBs,
	})
	pEnhDamaged, _ := videoapp.PSNRContext(ctx, clean, enhDamaged, 0)
	pBaseDamaged, _ := videoapp.PSNRContext(ctx, clean, baseDamaged, 0)

	fmt.Println("refinement raises quality:", pClean > pBase)
	fmt.Println("refinement is most of the bits:", lv.EnhBits() > lv.Base.TotalPayloadBits())
	fmt.Println("refinement flips cost less than base flips:", pEnhDamaged > pBaseDamaged)
	// Output:
	// refinement raises quality: true
	// refinement is most of the bits: true
	// refinement flips cost less than base flips: true
}

// corruptStreams returns copies of streams with n random bits flipped across
// them.
func corruptStreams(rng *rand.Rand, streams [][]byte, n int) [][]byte {
	out := make([][]byte, len(streams))
	var total int64
	for i, s := range streams {
		out[i] = append([]byte(nil), s...)
		total += int64(len(s)) * 8
	}
	for range n {
		pos := rng.Int63n(total)
		for i := range out {
			if bits := int64(len(out[i])) * 8; pos >= bits {
				pos -= bits
				continue
			}
			bitio.FlipBit(out[i], pos)
			break
		}
	}
	return out
}

// The per-reliability streams double as a delivery order for streaming
// (the paper's related work): strongest protection first is most important
// first. Undelivered streams are channel noise; delivering most important
// first gives the better picture at every partial delivery.
func Example_streaming() {
	ctx := context.Background()
	seq, _ := videoapp.GenerateTestVideo("cityride_like", 96, 64, 12)
	video, _ := videoapp.EncodeContext(ctx, seq, videoapp.DefaultParams(), 0)
	analysis, _ := videoapp.AnalyzeContext(ctx, video, 0)
	parts := analysis.Partition(videoapp.PaperAssignment())
	streams, _ := videoapp.SplitStreams(video, parts)

	// Strongest scheme (most parity bits per block) first.
	order := streams.SchemeNames()
	strength := map[string]int{}
	for _, b := range videoapp.PaperAssignment().Bounds {
		strength[b.Scheme.Name] = b.Scheme.T
	}
	slices.SortFunc(order, func(a, b string) int { return strength[b] - strength[a] })

	// psnrAfter decodes with the first k streams of o delivered.
	psnrAfter := func(o []string, k int) float64 {
		rng := rand.New(rand.NewSource(9))
		partial := &videoapp.StreamSet{Parts: parts, Streams: map[string][]byte{}, Bits: streams.Bits}
		for i, name := range o {
			partial.Streams[name] = streams.Streams[name]
			if i >= k {
				noise := make([]byte, len(streams.Streams[name]))
				rng.Read(noise)
				partial.Streams[name] = noise
			}
		}
		merged, _ := partial.Merge(video)
		dec, _ := videoapp.DecodeContext(ctx, merged, 0)
		psnr, _ := videoapp.PSNRContext(ctx, seq, dec, 0)
		return psnr
	}
	reverse := slices.Clone(order)
	slices.Reverse(reverse)
	ahead := true
	for k := 1; k < len(order); k++ {
		ahead = ahead && psnrAfter(order, k) > psnrAfter(reverse, k)
	}
	fmt.Println("delivery order:", order)
	fmt.Println("most important first is ahead at every partial delivery:", ahead)
	fmt.Println("full delivery is the same either way:", psnrAfter(order, len(order)) == psnrAfter(reverse, len(order)))
	// Output:
	// delivery order: [BCH-7 BCH-6 None]
	// most important first is ahead at every partial delivery: true
	// full delivery is the same either way: true
}
