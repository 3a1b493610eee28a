package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"videoapp/internal/codec"
	"videoapp/internal/frame"
	"videoapp/internal/obs"
	"videoapp/internal/serve"
	"videoapp/internal/store"
)

// Shape of the two serve workloads. Every chunk is one 6-frame GOP, about
// 507 KB of y4m, and all tenants read one archive file: the cache keys by
// tenant, so T tenants over N chunks are T*N distinct cache entries.
//
//	serve_hot    2 tenants x 14 chunks =  28 entries ~ 14 MB, under the 64 MiB cache
//	serve_cold  12 tenants x 42 chunks = 504 entries ~ 255 MB, four times the cache
//
// Each archive holds every synth preset (1 or 3 chunks of each, in seeded
// order), so what the decoder meets does not depend on the seed.
//
// serve_hot stays far below the cache's size because the cache splits its
// budget evenly over 8 hash shards of 16 such entries each: with 56 entries
// about one process in 400 hashes 17 of them into one shard, which then
// evicts forever, and a cache-resident workload must never miss.
const (
	serveGOP          = 6
	hotTenants        = 2
	hotChunksPerSet   = 1
	coldTenants       = 12
	coldChunksPerSet  = 3
	coldWarmRequests  = 80 // per client, about the cache's capacity in total
	zipfS             = 1.1
	rateSlices        = 10
	smallServeTenants = 2
)

// serveWorkload drives the catalog the CLI's serve command builds, over
// real TCP, with closed-loop keep-alive clients: a player asks for its next
// chunk when the previous one has arrived.
type serveWorkload struct {
	hot bool

	in      corpus
	refs    []chunkRef
	dens    density
	tenants []string
	urls    [][]string // [tenant][chunk]

	cat     *serve.Catalog
	stop    context.CancelFunc
	served  chan error
	clients []*http.Client
	plans   []plan
}

// plan yields a client's next request; scanner marks the clients whose
// frames count toward serve.scan_frames_per_s and not toward latency.
type plan struct {
	next    func() (tenant, chunk int)
	scanner bool
}

func (w *serveWorkload) cost(context.Context, *env) (*density, error) { return &w.dens, nil }
func (w *serveWorkload) inputs() *corpus                              { return &w.in }

func (w *serveWorkload) fingerprint() string {
	h := sha256.New()
	for _, r := range w.refs {
		fmt.Fprintf(h, "%08x %d %x\n", r.crc, r.size, math.Float64bits(r.psnr))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *serveWorkload) setUp(ctx context.Context, e *env) error {
	tenants, perSet := coldTenants, coldChunksPerSet
	if w.hot {
		tenants, perSet = hotTenants, hotChunksPerSet
	}
	if e.small {
		tenants, perSet = smallServeTenants, 1
	}
	// One source: every preset in seeded order, perSet chunks of each.
	names := presetNames(e)
	src := &frame.Sequence{Name: "serve", FPS: 50}
	for _, i := range seededPerm(e.seed, streamOrder, len(names)) {
		seq, err := generate(e, names[i], perSet*serveGOP)
		if err != nil {
			return err
		}
		src.Frames = append(src.Frames, seq.Frames...)
	}
	v := video{name: "serve", seq: src, params: encodeParams(24, serveGOP, codec.CABAC)}
	path := filepath.Join(e.dir, "serve.vacs")
	id := e.tr.start(0, "ingest", len(src.Frames))
	stats, err := ingestFile(ctx, v, path, e.nproc)
	e.tr.end(id)
	if err != nil {
		return fmt.Errorf("archiving the served video: %w", err)
	}
	w.in = corpus{videos: []video{v}, archives: []string{path}}

	id = e.tr.start(0, "reference", 0)
	w.refs, err = referenceRenders(ctx, path, src, e.nproc)
	e.tr.end(id)
	if err != nil {
		return fmt.Errorf("building reference renders: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	w.dens = density{archiveBytes: fi.Size(), frames: int64(len(src.Frames))}
	w.dens.addStats(stats, src.PixelCount())
	for _, r := range w.refs {
		w.dens.psnrSum += r.psnr
		w.dens.psnrN++
	}

	// The exact call the CLI's serve command makes, with default options.
	specs := make([]serve.ArchiveSpec, tenants)
	for t := range specs {
		name := fmt.Sprintf("tenant%d", t)
		w.tenants = append(w.tenants, name)
		specs[t] = serve.ArchiveSpec{Name: name, Open: func() (store.Backend, error) { return store.OpenFileBackend(path, false) }}
	}
	w.cat, err = serve.NewCatalog(specs)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// The server outlives setUp: the workload owns it and tearDown stops it.
	sctx, stop := context.WithCancel(context.Background())
	w.stop = stop
	w.served = make(chan error, 1)
	go func() { w.served <- w.cat.Serve(sctx, l) }()

	w.urls = make([][]string, tenants)
	for t, name := range w.tenants {
		for c := range w.refs {
			w.urls[t] = append(w.urls[t], fmt.Sprintf("http://%s/v1/archives/%s/chunks/%d", l.Addr(), name, c))
		}
	}
	nclients := e.nproc
	if !w.hot && nclients < 2 {
		nclients = 2 // the cold mix needs one client of each kind
	}
	for c := 0; c < nclients; c++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}})
		w.plans = append(w.plans, w.newPlan(e, c, nclients))
	}
	id = e.tr.start(0, "warmup", 0)
	err = w.warmUp(ctx)
	e.tr.end(id)
	return err
}

// newPlan builds client c's request sequence from the seed.
func (w *serveWorkload) newPlan(e *env, c, nclients int) plan {
	T, N := len(w.tenants), len(w.refs)
	if w.hot {
		z := newZipfKeys(e.seed, streamClient+uint64(c), T*N, zipfS)
		return plan{next: func() (int, int) { k := z.next(); return k / N, k % N }}
	}
	if c%2 == 0 {
		// A scanner plays its tenants front to back, then starts over.
		scanners := (nclients + 1) / 2
		var mine []int
		for t := 0; t < T; t++ {
			if t%scanners == c/2 {
				mine = append(mine, t)
			}
		}
		pos := 0
		return plan{scanner: true, next: func() (int, int) {
			t, ch := mine[(pos/N)%len(mine)], pos%N
			pos++
			return t, ch
		}}
	}
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamClient+uint64(c))))
	return plan{next: func() (int, int) { return rng.Intn(T), rng.Intn(N) }}
}

// warmUp fills the cache to the state the timed section assumes: every
// entry once for serve_hot, about a cacheful of each client's own plan for
// serve_cold. It also opens every client's connection.
func (w *serveWorkload) warmUp(ctx context.Context) error {
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			fetch := func(t, ch int) bool {
				if r := w.request(ctx, c, t, ch, &buf); !r.ok {
					errs[c] = fmt.Errorf("warm-up request %s failed: %s", w.urls[t][ch], r.why)
					return false
				}
				return true
			}
			if w.hot {
				for k := c; k < len(w.tenants)*len(w.refs); k += len(w.clients) {
					if !fetch(k/len(w.refs), k%len(w.refs)) {
						return
					}
				}
				return
			}
			for i := 0; i < coldWarmRequests; i++ {
				if t, ch := w.plans[c].next(); !fetch(t, ch) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reply is the checked result of one request.
type reply struct {
	ok     bool
	why    string
	lat    time.Duration
	frames int
}

// request fetches one chunk and checks it: status 200, full length, and a
// CRC-32C equal to the reference render's. The clock stops when the last
// body byte has arrived, before the checksum is computed.
func (w *serveWorkload) request(ctx context.Context, c, t, ch int, buf *bytes.Buffer) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.urls[t][ch], nil)
	if err != nil {
		return reply{why: err.Error()}
	}
	t0 := time.Now()
	resp, err := w.clients[c].Do(req)
	if err != nil {
		return reply{why: err.Error()}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	ref := w.refs[ch]
	switch {
	case err != nil:
		return reply{why: "reading body: " + err.Error()}
	case resp.StatusCode != http.StatusOK:
		return reply{why: "status " + resp.Status}
	case buf.Len() != ref.size:
		return reply{why: fmt.Sprintf("body of %d bytes, want %d", buf.Len(), ref.size)}
	case crc32.Checksum(buf.Bytes(), castagnoli) != ref.crc:
		return reply{why: "body checksum differs from the reference render"}
	}
	return reply{ok: true, lat: lat, frames: ref.frames}
}

// counters snapshots the serve and cache layers' own counts through their
// public accessors.
func (w *serveWorkload) counters() serveCounts {
	cs := w.cat.CacheStats()
	snap := w.cat.Metrics().Snapshot()
	return serveCounts{
		hits: cs.Hits, misses: cs.Misses, loads: cs.Loads, evictions: cs.Evictions,
		decodes:    snap.CounterTotal(obs.CtrServeDecodes),
		prefIssued: snap.CounterTotal(obs.CtrServePrefetchIssued),
		prefUseful: snap.CounterTotal(obs.CtrServePrefetchUseful),
		prefWasted: snap.CounterTotal(obs.CtrServePrefetchWasted),
	}
}

// served is one completed request as the client saw it.
type served struct {
	reply
	end     time.Duration // since the section started
	scanner bool
}

func (w *serveWorkload) measure(ctx context.Context, e *env) (*outcome, error) {
	window := time.Duration(e.seconds * float64(time.Second))
	before := w.counters()
	per := make([][]served, len(w.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; time.Since(start) < window && ctx.Err() == nil; i++ {
				t, ch := w.plans[c].next()
				id := e.tr.start(0, "client.request", c<<24|i)
				r := w.request(ctx, c, t, ch, &buf)
				e.tr.end(id)
				per[c] = append(per[c], served{reply: r, end: time.Since(start), scanner: w.plans[c].scanner})
			}
		}()
	}
	wg.Wait()
	o := &outcome{elapsed: time.Since(start), counts: w.counters().minus(before)}

	slice := window / rateSlices
	all, scan := make([]float64, rateSlices), make([]float64, rateSlices)
	var why []string
	for _, reqs := range per {
		for _, r := range reqs {
			o.attempted++
			if !r.ok {
				o.failed++
				if len(why) < 5 {
					why = append(why, r.why)
				}
				continue
			}
			o.frames += int64(r.frames)
			if !r.scanner || w.hot {
				o.lat = append(o.lat, msOf(r.lat))
			}
			if k := int(r.end / slice); k < rateSlices {
				all[k] += float64(r.frames)
				if r.scanner {
					scan[k] += float64(r.frames)
				}
			}
		}
	}
	for k := range all {
		o.rates = append(o.rates, all[k]/slice.Seconds())
		o.scanRates = append(o.scanRates, scan[k]/slice.Seconds())
	}
	o.check = why
	return o, ctx.Err()
}

// verify has nothing left to compute: every body was checked as it
// arrived. It reports the first few reasons behind the failures counted.
func (w *serveWorkload) verify(_ context.Context, _ *env, o *outcome) []string {
	why, _ := o.check.([]string)
	if w.hot && o.failed == 0 && (o.counts.decodes != 0 || o.counts.misses != 0) {
		why = append(why, fmt.Sprintf("serve_hot is meant to be cache-resident, yet %d misses and %d decodes happened", o.counts.misses, o.counts.decodes))
	}
	return why
}

func (w *serveWorkload) tearDown() {
	if w.stop != nil {
		w.stop()
		<-w.served
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	if w.cat != nil {
		w.cat.Close()
	}
	for _, p := range w.in.archives {
		os.Remove(p)
	}
}
