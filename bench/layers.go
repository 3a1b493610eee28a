package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"videoapp/internal/bitio"
	"videoapp/internal/cache"
	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/entropy"
	"videoapp/internal/frame"
	"videoapp/internal/mlc"
	"videoapp/internal/predict"
	"videoapp/internal/quality"
	"videoapp/internal/serve"
	"videoapp/internal/sim"
	"videoapp/internal/store"
	"videoapp/internal/transform"
	"videoapp/internal/y4m"
)

// Layer probes: the benchmark's own replay of each layer through its
// public functions, one call at a time at workers=1, with a span and the
// heap allocations recorded around every call. The program is not edited;
// what a stage costs inside StreamToArchive or the server is read off the
// same calls made from outside.

// newSystem builds the storage system a default Pipeline uses, under the
// given assignment.
func newSystem(a core.ClassAssignment) (*store.System, error) {
	return store.New(store.Config{Substrate: mlc.Default(), Assignment: a})
}

// writeStages accumulates the write path's per-stage costs.
type writeStages struct {
	frames, chunks int
	pixels         int64
	payloadBits    int64
	encode         tally
	analyze        tally
	partition      tally
	footprint      tally
	appendChunk    tally
	units          []unit // kept up to keepUnits, for the round-trip probes
}

const keepUnits = 12

// serialMSPerFrame is the sum of the stage times per frame: what one frame
// costs when no stage overlaps another.
func (s *writeStages) serialMSPerFrame() float64 {
	return s.encode.msPer(s.frames) + s.analyze.msPer(s.frames) + s.partition.msPer(s.frames) +
		s.footprint.msPer(s.frames) + s.appendChunk.msPer(s.frames)
}

// serialIngest archives one video the way Pipeline.StreamToArchive does,
// but one stage at a time on one goroutine: per GOP-sized chunk, encode,
// analyze, partition, footprint, append. The bytes written are identical
// to StreamToArchive's, which the ingest workload checks.
func serialIngest(ctx context.Context, tr *tracer, op int, v video, w io.Writer, acc *writeStages) (store.Stats, error) {
	assign := core.PaperAssignment()
	sys, err := newSystem(assign)
	if err != nil {
		return store.Stats{}, err
	}
	root := tr.start(0, "ingest.video", op)
	defer tr.end(root)
	var (
		cw         *store.ChunkWriter
		costs      []store.FrameCost
		headerBits int64
		pixels     int64
	)
	step := v.params.GOPSize
	for first := 0; first < len(v.seq.Frames); first += step {
		sub := &frame.Sequence{Name: v.seq.Name, FPS: v.seq.FPS, Frames: v.seq.Frames[first:min(first+step, len(v.seq.Frames))]}
		var (
			ev    *codec.Video
			an    *core.Analysis
			parts []core.FramePartition
			fc    []store.FrameCost
		)
		c, err := tr.measured(root, "codec.encode", op, func() (err error) {
			ev, err = codec.EncodeParallelContext(ctx, sub, v.params, 1)
			return err
		})
		if err != nil {
			return store.Stats{}, err
		}
		acc.encode.add(c)
		c, err = tr.measured(root, "core.analyze", op, func() (err error) {
			if an, err = core.AnalyzeContext(ctx, ev, core.DefaultOptions(), 1); err != nil {
				return err
			}
			return an.CheckMonotone()
		})
		if err != nil {
			return store.Stats{}, err
		}
		acc.analyze.add(c)
		c, _ = tr.measured(root, "core.partition", op, func() error {
			parts = an.Partition(assign)
			return nil
		})
		acc.partition.add(c)
		c, err = tr.measured(root, "store.footprint", op, func() (err error) {
			fc, err = sys.FrameCosts(ctx, ev, parts, 1)
			return err
		})
		if err != nil {
			return store.Stats{}, err
		}
		acc.footprint.add(c)
		c, err = tr.measured(root, "store.append", op, func() (err error) {
			if cw == nil {
				meta := store.ArchiveMeta{W: ev.W, H: ev.H, FPS: ev.FPS, GOPSize: v.params.GOPSize, GOPsPerChunk: 1}
				if cw, err = store.NewChunkWriter(w, meta); err != nil {
					return err
				}
			}
			return cw.Append(ev, parts, first)
		})
		if err != nil {
			return store.Stats{}, err
		}
		acc.appendChunk.add(c)

		costs = append(costs, fc...)
		headerBits += ev.HeaderBits() + core.PivotOverheadBits(parts)
		pixels += sub.PixelCount()
		acc.frames += len(sub.Frames)
		acc.chunks++
		acc.payloadBits += ev.TotalPayloadBits()
		if len(acc.units) < keepUnits {
			acc.units = append(acc.units, unit{src: sub, video: ev, an: an, parts: parts})
		}
	}
	acc.pixels += pixels
	return sys.StatsFromCosts(costs, headerBits, pixels), nil
}

// tripStages accumulates the storage round trip's per-stage costs.
type tripStages struct {
	trips         int
	frames        int
	inject        tally
	decodeClean   tally
	decodeDamaged tally
	decodeLight   tally // decodes of PaperAssignment trips: a few flips
	psnr          tally
	cleanFrames   int
	damagedFrames int
	flips         int64
	payloadBits   int64
	paperTrips    int
	lossDB        float64 // sum over PaperAssignment trips of clean - round-trip PSNR
	units         []unit  // what the trips ran on
}

// tripResult is what one round trip produced; equal seeds must reproduce it
// bit for bit at every worker count.
type tripResult struct {
	flips int
	psnr  float64
}

// serialTrip runs one storage round trip through the layer calls
// Result.StoreRoundTripContext makes, one at a time: inject, decode, then
// PSNR against the source.
func serialTrip(ctx context.Context, tr *tracer, op int, u unit, sys *store.System, parts []core.FramePartition, seed int64, damaged bool, acc *tripStages) (tripResult, error) {
	root := tr.start(0, "montecarlo.trip", op)
	defer tr.end(root)
	var (
		stored *codec.Video
		seq    *frame.Sequence
		res    tripResult
	)
	c, err := tr.measured(root, "store.inject", op, func() (err error) {
		stored, res.flips, err = sys.StoreContext(ctx, u.video, parts, store.StoreOpts{Seed: seed, Workers: 1})
		return err
	})
	if err != nil {
		return res, err
	}
	acc.inject.add(c)
	c, err = tr.measured(root, "codec.decode", op, func() (err error) {
		seq, err = codec.DecodeContext(ctx, stored, codec.DecodeOptions{}, 1)
		return err
	})
	if err != nil {
		return res, err
	}
	if damaged {
		acc.decodeDamaged.add(c)
		acc.damagedFrames += len(seq.Frames)
	} else {
		acc.decodeLight.add(c)
	}
	c, err = tr.measured(root, "quality.psnr", op, func() (err error) {
		res.psnr, err = quality.PSNRContext(ctx, u.src, seq, 1)
		return err
	})
	if err != nil {
		return res, err
	}
	acc.psnr.add(c)
	stored.Release()
	acc.trips++
	acc.frames += len(seq.Frames)
	acc.flips += int64(res.flips)
	acc.payloadBits += u.video.TotalPayloadBits()
	return res, nil
}

// cleanDecode decodes the undamaged unit under a span and returns its PSNR
// against the source.
func cleanDecode(ctx context.Context, tr *tracer, op int, u unit, acc *tripStages) (float64, error) {
	var seq *frame.Sequence
	c, err := tr.measured(0, "codec.decode_clean", op, func() (err error) {
		seq, err = codec.DecodeContext(ctx, u.video, codec.DecodeOptions{}, 1)
		return err
	})
	if err != nil {
		return 0, err
	}
	acc.decodeClean.add(c)
	acc.cleanFrames += len(seq.Frames)
	return quality.PSNRContext(ctx, u.src, seq, 1)
}

// probeRoundTrips replays rounds storage round trips per unit and
// assignment on the given units.
func probeRoundTrips(ctx context.Context, e *env, units []unit, rounds int) (*tripStages, error) {
	paper, err := newSystem(core.PaperAssignment())
	if err != nil {
		return nil, err
	}
	none, err := newSystem(noneAssignment())
	if err != nil {
		return nil, err
	}
	acc := &tripStages{units: units}
	for i, u := range units {
		clean, err := cleanDecode(ctx, e.tr, i, u, acc)
		if err != nil {
			return nil, err
		}
		noneParts := u.an.Partition(noneAssignment())
		for r := 0; r < rounds; r++ {
			seed := tripSeed(e.seed, r)
			res, err := serialTrip(ctx, e.tr, i, u, paper, u.parts, seed, false, acc)
			if err != nil {
				return nil, err
			}
			acc.paperTrips++
			acc.lossDB += clean - res.psnr
			if _, err := serialTrip(ctx, e.tr, i, u, none, noneParts, seed, true, acc); err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// sampleVideos truncates the corpus to about maxFrames frames, whole GOPs
// of the first videos, so a probe's cost does not grow with the corpus.
func sampleVideos(c *corpus, maxFrames int) []video {
	var out []video
	for _, v := range c.videos {
		if maxFrames <= 0 {
			break
		}
		n := min(len(v.seq.Frames), max(maxFrames/v.params.GOPSize, 1)*v.params.GOPSize)
		cut := *v.seq
		cut.Frames = v.seq.Frames[:n]
		out = append(out, video{name: v.name, seq: &cut, params: v.params})
		maxFrames -= n
	}
	return out
}

// probeWritePath runs the sample through serialIngest.
func probeWritePath(ctx context.Context, e *env, sample []video) (*writeStages, error) {
	acc := &writeStages{}
	for i, v := range sample {
		if _, err := serialIngest(ctx, e.tr, i, v, io.Discard, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// ingestRate archives the sample with the real pipelined
// Pipeline.StreamToArchive at the given worker count and returns frames/s.
func ingestRate(ctx context.Context, sample []video, workers int) (float64, error) {
	frames := 0
	t0 := time.Now()
	for _, v := range sample {
		if _, err := streamTo(ctx, v, io.Discard, workers); err != nil {
			return 0, err
		}
		frames += len(v.seq.Frames)
	}
	return float64(frames) / time.Since(t0).Seconds(), nil
}

// tripRate runs whole-video round trips (inject, decode, PSNR) over the
// units at the given worker count and returns frames/s.
func tripRate(ctx context.Context, e *env, units []unit, rounds, workers int) (float64, error) {
	sys, err := newSystem(noneAssignment())
	if err != nil {
		return 0, err
	}
	frames := 0
	t0 := time.Now()
	for _, u := range units {
		parts := u.an.Partition(noneAssignment())
		for r := 0; r < rounds; r++ {
			stored, _, err := sys.StoreContext(ctx, u.video, parts, store.StoreOpts{Seed: tripSeed(e.seed, r), Workers: workers})
			if err != nil {
				return 0, err
			}
			seq, err := codec.DecodeContext(ctx, stored, codec.DecodeOptions{}, workers)
			if err != nil {
				return 0, err
			}
			if _, err := quality.PSNRContext(ctx, u.src, seq, workers); err != nil {
				return 0, err
			}
			stored.Release()
			frames += len(seq.Frames)
		}
	}
	return float64(frames) / time.Since(t0).Seconds(), nil
}

// discardWriter is a ResponseWriter that counts and drops the body.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
func (d *discardWriter) reset() {
	clear(d.h)
	d.status, d.n = http.StatusOK, 0
}

// readPath holds the read side's per-layer costs.
type readPath struct {
	open        tally
	readChunk   tally
	decode      tally
	render      tally
	handlerMiss tally
	// coldOverheadUS is, per chunk, the handler's miss minus that chunk's
	// own read + decode + render; pairing by chunk keeps the spread of
	// decode cost across content out of the difference.
	coldOverheadUS []float64
	handlerHot     tally
	hotRequests    int
	socketHotUS    float64 // median latency of a resident chunk over TCP
	cacheHitNS     float64
	chunks         int
}

// chunkAt names one archived chunk of the corpus.
type chunkAt struct {
	archive int // index into the sampled archives
	chunk   int
}

const (
	probeArchives = 12
	probeChunks   = 24
	hotRounds     = 40
)

// probeReadPath replays the server's cold path from outside, chunk by
// chunk (archive read, decode, y4m render), then sends the same chunks
// through the catalog's handler twice: first on a fresh catalog, where
// every request misses, then again, where every request hits. What the
// miss costs beyond read + decode + render is the serve layer's own
// overhead on the cold path.
func probeReadPath(ctx context.Context, e *env, c *corpus) (*readPath, error) {
	rp := &readPath{}
	paths := c.archives
	if len(paths) > probeArchives {
		picked := seededPerm(e.seed, streamSample, len(paths))[:probeArchives]
		sort.Ints(picked)
		paths = nil
		for _, i := range picked {
			paths = append(paths, c.archives[i])
		}
	}
	var where []chunkAt
	archives := make([]*store.ChunkArchive, len(paths))
	for i, p := range paths {
		var (
			a *store.ChunkArchive
			b store.Backend
		)
		cst, err := e.tr.measured(0, "store.open_archive", i, func() (err error) {
			a, b, err = openArchive(p)
			return err
		})
		if err != nil {
			return nil, err
		}
		rp.open.add(cst)
		defer b.Close()
		defer a.Close()
		archives[i] = a
	}
	// Spread the chunk budget over the archives, last chunks first: a miss
	// on chunk i schedules readahead of i+1 and i+2, and walking backwards
	// keeps those already resident, so no background decode competes with
	// the request being timed.
	for i := len(archives) - 1; i >= 0; i-- {
		per := max(probeChunks/len(archives), 1)
		for ch := archives[i].NumChunks() - 1; ch >= 0 && per > 0; ch, per = ch-1, per-1 {
			where = append(where, chunkAt{archive: i, chunk: ch})
		}
	}
	rp.chunks = len(where)

	specs := make([]serve.ArchiveSpec, len(paths))
	for i, p := range paths {
		specs[i] = serve.ArchiveSpec{Name: fmt.Sprintf("probe%d", i), Open: func() (store.Backend, error) { return store.OpenFileBackend(p, false) }}
	}
	cat, err := serve.NewCatalog(specs)
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	h := cat.Handler()
	reqs := make([]*http.Request, len(where))
	for i, at := range where {
		url := fmt.Sprintf("/v1/archives/probe%d/chunks/%d", at.archive, at.chunk)
		if reqs[i], err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil); err != nil {
			return nil, err
		}
	}
	dw := &discardWriter{h: http.Header{}}
	handle := func(name string, op int, want string, into *tally) error {
		dw.reset()
		cst, _ := e.tr.measured(0, name, op, func() error { h.ServeHTTP(dw, reqs[op]); return nil })
		if dw.status != http.StatusOK || dw.h.Get("X-Cache") != want {
			return fmt.Errorf("%s %s: status %d, X-Cache %q, want 200 %s", name, reqs[op].URL.Path, dw.status, dw.h.Get("X-Cache"), want)
		}
		into.add(cst)
		return nil
	}

	// replay is the cold path made from outside: read, decode, render.
	var buf bytes.Buffer
	replay := func(tr *tracer, op int, at chunkAt, rp *readPath) error {
		a := archives[at.archive]
		root := tr.start(0, "cold.chunk", op)
		defer tr.end(root)
		var (
			cr  store.ChunkRead
			seq *frame.Sequence
		)
		cst, err := tr.measured(root, "store.readchunk", op, func() (err error) {
			cr, err = a.ReadChunkContext(ctx, at.chunk)
			return err
		})
		if err != nil {
			return err
		}
		rp.readChunk.add(cst)
		// workers 0, as the server's default options decode.
		cst, err = tr.measured(root, "codec.decode", op, func() (err error) {
			seq, err = codec.DecodeContext(ctx, cr.Video, codec.DecodeOptions{}, 0)
			return err
		})
		if err != nil {
			return err
		}
		rp.decode.add(cst)
		buf.Reset()
		buf.Grow(len(seq.Frames)*(cr.Video.W*cr.Video.H*3/2+8) + 128)
		cst, err = tr.measured(root, "y4m.write", op, func() error { return y4m.Write(&buf, seq) })
		rp.render.add(cst)
		return err
	}
	// One untimed replay first, so that the heap has grown and the files are
	// in the page cache before anything is compared; then, chunk by chunk,
	// the replay and right after it the handler's miss on the same chunk.
	if err := replay(nil, 0, where[0], &readPath{}); err != nil {
		return nil, err
	}
	for op, at := range where {
		if err := replay(e.tr, op, at, rp); err != nil {
			return nil, err
		}
		if err := handle("serve.handler_miss", op, "miss", &rp.handlerMiss); err != nil {
			return nil, err
		}
		rp.coldOverheadUS = append(rp.coldOverheadUS, rp.handlerMiss.each[op]-rp.readChunk.each[op]-rp.decode.each[op]-rp.render.each[op])
	}
	for round := 0; round < hotRounds; round++ {
		for op := range where {
			if err := handle("serve.handler_hot", op, "hit", &rp.handlerHot); err != nil {
				return nil, err
			}
		}
	}
	rp.hotRequests = hotRounds * len(where)

	if rp.socketHotUS, err = socketMedianUS(ctx, cat, reqs); err != nil {
		return nil, err
	}
	rp.cacheHitNS, err = cacheHitNS(ctx)
	return rp, err
}

// socketMedianUS serves the catalog on a real socket and fetches the given
// (resident) chunks hotRounds times over one keep-alive connection: what
// TCP and net/http add on top of the handler.
func socketMedianUS(ctx context.Context, cat *serve.Catalog, reqs []*http.Request) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	sctx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- cat.Serve(sctx, l) }()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	fetch := func(path string, buf *bytes.Buffer) (time.Duration, error) {
		t0 := time.Now()
		resp, err := client.Get("http://" + l.Addr().String() + path)
		if err != nil {
			return 0, err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("socket probe: status %s", resp.Status)
		}
		return time.Since(t0), err
	}
	var (
		buf bytes.Buffer
		lat []float64
	)
	for round := 0; round < hotRounds && err == nil; round++ {
		for _, r := range reqs {
			var d time.Duration
			if d, err = fetch(r.URL.Path, &buf); err != nil {
				break
			}
			lat = append(lat, usOf(d))
		}
	}
	client.CloseIdleConnections()
	stop()
	if serr := <-served; err == nil {
		err = serr
	}
	return median(lat), err
}

// cacheHitNS times GetOrLoad on a resident key of a cache built exactly
// like the catalog's.
func cacheHitNS(ctx context.Context) (float64, error) {
	ch := cache.NewShardedHash[cache.Keyed[int], []byte](64<<20, cache.DefaultShards(), func(b []byte) int64 { return int64(len(b)) }, cache.KeyedHash[int]())
	sp := cache.In(ch, "probe#1")
	load := func(context.Context) ([]byte, error) { return make([]byte, 1<<10), nil }
	if _, _, err := sp.GetOrLoad(ctx, 7, load); err != nil {
		return 0, err
	}
	misses := 0
	ns := kernelNS(1<<15, func(n int) {
		for i := 0; i < n; i++ {
			if _, hit, _ := sp.GetOrLoad(ctx, 7, load); !hit {
				misses++
			}
		}
	})
	if misses != 0 {
		return 0, fmt.Errorf("cache probe: a resident key missed %d times", misses)
	}
	return ns, nil
}

// kernelNS times fn(n) in five batches and returns the median nanoseconds
// per iteration.
func kernelNS(n int, fn func(n int)) float64 {
	var per []float64
	for batch := 0; batch < 5; batch++ {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// kernels are the leaf costs the codec and the injector are built from,
// timed on fixed seeded inputs.
type kernels struct {
	sad16NS, motionSearchUS, blockRoundTripNS float64
	cabacEncNS, cabacDecNS, flipNSPerKbit     float64
}

var kernelSink int

func probeKernels(e *env) (kernels, error) {
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamKernels)))
	iters := func(n int) int {
		if e.small {
			return n / 16
		}
		return n
	}
	// A textured reference and a current frame that is the reference moved
	// by (3,2) plus noise, so the motion search has something to find.
	ref, cur := frame.MustNew(frameW, frameH), frame.MustNew(frameW, frameH)
	for i := range ref.Y {
		x, y := i%frameW, i/frameW
		ref.Y[i] = uint8(128 + 60*((x/8+y/8)%2) + rng.Intn(24))
	}
	for y := 0; y < frameH; y++ {
		for x := 0; x < frameW; x++ {
			cur.Y[y*frameW+x] = frame.ClampU8(int(ref.LumaAt(x+3, y+2)) + rng.Intn(5) - 2)
		}
	}
	type pos struct{ x, y int }
	at := make([]pos, 256)
	for i := range at {
		at[i] = pos{16 * (1 + rng.Intn(frameW/16-2)), 16 * (1 + rng.Intn(frameH/16-2))}
	}
	var k kernels
	k.sad16NS = kernelNS(iters(1<<16), func(n int) {
		for i := 0; i < n; i++ {
			p := at[i&255]
			kernelSink += predict.SAD(cur, ref, p.x, p.y, 16, 16, predict.MV{X: int16(i & 3), Y: int16(i >> 2 & 3)})
		}
	})
	k.motionSearchUS = kernelNS(iters(1<<11), func(n int) {
		for i := 0; i < n; i++ {
			p := at[i&255]
			_, c := predict.MotionSearch(cur, ref, p.x, p.y, 16, 16, predict.MV{}, 16)
			kernelSink += c
		}
	}) / 1e3
	blocks := make([]transform.Block, 256)
	for i := range blocks {
		for j := range blocks[i] {
			blocks[i][j] = int32(rng.Intn(121) - 60)
		}
	}
	k.blockRoundTripNS = kernelNS(iters(1<<16), func(n int) {
		for i := 0; i < n; i++ {
			out := transform.RoundTrip(&blocks[i&255], 28, false)
			kernelSink += int(out[0])
		}
	})

	// Skewed bins over a few contexts, as coefficient flags are.
	bins := iters(1 << 18)
	bits := make([]uint8, bins)
	for i := range bits {
		if rng.Intn(5) == 0 {
			bits[i] = 1
		}
	}
	var coded []byte
	k.cabacEncNS = kernelNS(bins, func(n int) {
		w := bitio.NewWriter()
		enc := entropy.NewEncoder(w)
		var ctxs [8]entropy.Context
		for i := 0; i < n; i++ {
			enc.EncodeBit(&ctxs[i&7], int(bits[i]))
		}
		enc.Flush()
		coded = w.Bytes()
	})
	wrong := 0
	k.cabacDecNS = kernelNS(bins, func(n int) {
		dec := entropy.NewDecoder(bitio.NewReader(coded))
		var ctxs [8]entropy.Context
		for i := 0; i < n; i++ {
			if dec.DecodeBit(&ctxs[i&7]) != int(bits[i]) {
				wrong++
			}
		}
	})
	if wrong != 0 {
		return k, fmt.Errorf("arithmetic coder probe: %d decoded bins differ from what was encoded", wrong)
	}
	const flipBits = 1 << 20
	buf := make([]byte, flipBits/8)
	k.flipNSPerKbit = kernelNS(8, func(n int) {
		for i := 0; i < n; i++ {
			kernelSink += sim.FlipIID(rng, buf, flipBits, 1e-3)
		}
	}) / (flipBits / 1000)
	return k, nil
}
