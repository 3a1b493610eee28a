package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"videoapp/internal/cache"
	"videoapp/internal/codec"
	"videoapp/internal/obs"
	"videoapp/internal/store"
)

// Tests of the parse-record tier (Catalog.syntax): a repeat cold miss must be
// indistinguishable on the wire from a first one, the read path with its
// fault model must still decide which bytes are decoded, and the tier must
// live inside the one cache budget and go when its space goes.

// countingBackend counts the reads that reach the device.
type countingBackend struct {
	store.Backend
	reads atomic.Int64
}

func (b *countingBackend) ReadAt(p []byte, off int64) (int, error) {
	b.reads.Add(1)
	return b.Backend.ReadAt(p, off)
}

func counterTotal(c *Catalog, name string) int64 {
	return c.Metrics().Snapshot().CounterTotal(name)
}

// spaceOf returns the named tenant's current cache space.
func spaceOf(c *Catalog, name string) string {
	v, _ := c.tenants.Load(name)
	tn := v.(*tenant)
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return tn.space()
}

// dropRenderings empties the rendered tier, so the next request for any
// chunk is a cold miss while the record tier keeps what it holds.
func dropRenderings(c *Catalog) {
	c.cache.RemoveIf(func(cache.Keyed[int]) bool { return true })
}

// recordKeys lists the record tier's resident keys.
func recordKeys(c *Catalog) []cache.Keyed[int] {
	var keys []cache.Keyed[int]
	c.syntax.RemoveIf(func(k cache.Keyed[int]) bool {
		keys = append(keys, k)
		return false
	})
	return keys
}

// residentRecords returns the record-tier entry of chunk i of the named
// tenant, failing the test when there is none with a buffer.
func residentRecords(t testing.TB, c *Catalog, name string, i int) chunkRecords {
	t.Helper()
	r, hit, _ := c.syntax.GetOrLoad(context.Background(), cache.Keyed[int]{Space: spaceOf(c, name), Key: i}, func(context.Context) (chunkRecords, error) {
		return chunkRecords{}, fmt.Errorf("gone")
	})
	if !hit || r.buf == nil {
		t.Fatalf("no records resident for %s/%d", name, i)
	}
	r.buf.Unpin() // the lookup's pin; the test reads only the handle's counts
	return r
}

// heldBytes is what the record tier's buffers hold mapped for their owner,
// the tier, whatever the tier charged for them.
func heldBytes(c *Catalog) int64 { return c.records.Stats().Held }

// TestReplayEqualsParseOnTheWire: a catalog whose rendered tier retains
// nothing serves every chunk of three archives — both entropy coders, and
// B-frame GOPs in two slices — twice. Every request is a cold miss that reads
// the archive; the first pass parses every frame, the second replays every
// frame, and both bodies equal a direct decode of the same read.
func TestReplayEqualsParseOnTheWire(t *testing.T) {
	const gops = 3
	archives := []struct {
		name string
		tune func(*codec.Params)
	}{
		{"cabac", nil},
		{"cavlc", func(p *codec.Params) { p.Entropy = codec.CAVLC }},
		{"bgop", func(p *codec.Params) { p.BFrames, p.SlicesPerFrame = 1, 2 }}, // one chunk of three GOPs
	}
	var (
		specs  []ArchiveSpec
		devs   []*countingBackend
		want   = map[string][][]byte{}
		chunks int64
		frames int64
	)
	for _, ar := range archives {
		c := containerOf(t, gops, ar.tune)
		want[ar.name] = c.want
		chunks += int64(len(c.want))
		frames += int64(openBytes(t, c.data).TotalFrames())
		dev := &countingBackend{Backend: store.NewSnapshotBackend(c.data)}
		devs = append(devs, dev)
		specs = append(specs, ArchiveSpec{Name: ar.name, Open: func() (store.Backend, error) { return dev, nil }})
	}
	deviceReads := func() (n int64) {
		for _, d := range devs {
			n += d.reads.Load()
		}
		return n
	}
	// Every rendering is dropped once served, so every request is a cold
	// miss; the record tier's 64 KB holds every chunk's records. Readahead
	// off: each chunk is materialized once per pass.
	cat, err := NewCatalog(specs, WithCacheBytes(256<<10), WithPrefetch(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()
	for _, ar := range archives { // open every archive: the open scan reads too
		if r := fetch(t, ts.Client(), ts.URL+"/v1/archives/"+ar.name); r.status != http.StatusOK {
			t.Fatalf("index of %s: status %d", ar.name, r.status)
		}
	}

	var reads [2]int64
	for pass := range reads {
		before := deviceReads()
		for _, ar := range archives {
			for i := range want[ar.name] {
				r := fetch(t, ts.Client(), ts.URL+pathOf(ar.name, i))
				dropRenderings(cat)
				r.wantCache(t, "miss")
				if !bytes.Equal(r.body, want[ar.name][i]) {
					t.Fatalf("pass %d %s/%d: body differs from a direct decode of the same read", pass, ar.name, i)
				}
			}
		}
		reads[pass] = deviceReads() - before
		if got, want := counterTotal(cat, obs.CtrFramesReplayed), int64(pass)*frames; got != want {
			t.Fatalf("after pass %d: %d frames replayed, want %d", pass, got, want)
		}
	}
	if reads[0] == 0 || reads[1] != reads[0] {
		t.Fatalf("device reads per pass: %v; a replayed miss must read the archive exactly like a parsed one", reads)
	}
	snap := cat.Metrics().Snapshot()
	for _, ar := range archives {
		n := int64(len(want[ar.name]))
		if got := snap.Counter(obs.CtrServeReplays, ar.name); got != n {
			t.Fatalf("%s: %d misses served wholly by replay, want %d", ar.name, got, n)
		}
		if got := snap.Counter(obs.CtrServeDecodes, ar.name); got != 2*n {
			t.Fatalf("%s: %d materializations, want %d", ar.name, got, 2*n)
		}
	}
	if cs := cat.CacheStats(); cs.Loads != 2*chunks || cs.Hits != 0 || cs.Len != 0 {
		t.Fatalf("rendered tier %+v: want every request a load and nothing retained", cs)
	}

	// The gauges: /metrics refreshes them from the tier's own counters.
	if r := fetch(t, ts.Client(), ts.URL+"/metrics"); r.status != http.StatusOK {
		t.Fatalf("/metrics: status %d", r.status)
	}
	snap = cat.Metrics().Snapshot()
	ss := cat.syntax.Stats()
	if got := snap.Gauge(obs.GaugeServeSyntaxCacheBytes, ""); got != float64(ss.Cost) || got == 0 {
		t.Fatalf("%s = %v, tier cost %d", obs.GaugeServeSyntaxCacheBytes, got, ss.Cost)
	}
	if got := snap.Gauge(obs.GaugeServeSyntaxCacheHitRate, ""); got != 0.5 {
		t.Fatalf("%s = %v, want 0.5 (one miss and one hit per chunk)", obs.GaugeServeSyntaxCacheHitRate, got)
	}
	if got := heldBytes(cat); got != ss.Cost {
		t.Fatalf("tier charged %d B for records of %d B", ss.Cost, got)
	}
}

// switchedBackend serves one of several same-sized containers; the test
// switches between requests, so consecutive reads of one chunk can return
// different bytes — the device that flips a bit today and not tomorrow.
type switchedBackend struct {
	store.Backend
	containers []store.Backend
	cur        atomic.Int32
}

func (b *switchedBackend) ReadAt(p []byte, off int64) (int, error) {
	return b.containers[b.cur.Load()].ReadAt(p, off)
}

// frameBytes is everything of a frame its parse depends on that a damaged
// read can change.
func frameBytes(f *codec.EncodedFrame) string {
	return fmt.Sprint(f.SliceMBStart, f.SliceByteStart, f.Payload)
}

// TestFaultModelDecidesWhatIsDecoded: reads of one chunk alternate between a
// clean device and damaged ones (a flipped byte in an approximate stream,
// which the read path zero-fills and flags). Every response must be a decode
// of the bytes its own read returned, with that read's degraded verdict; a
// frame replays exactly when the bytes on record for it are the bytes just
// read, so a damaged read parses what the damage reached and the clean read
// after it never decodes from the damaged record. A mirror-repaired read
// returns the clean bytes and shares the clean record.
func TestFaultModelDecidesWhatIsDecoded(t *testing.T) {
	c := containerOf(t, 2, nil)
	data, info := c.data, c.info(t, 0)
	pol := chaosPolicy()
	type variant struct {
		body     []byte
		degraded string
		frames   []string
	}
	var variants []variant
	containers := []store.Backend{}
	add := func(container []byte) bool {
		a, err := store.OpenArchiveBackend(store.NewSnapshotBackend(container), store.WithFaultPolicy(pol))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.ReadChunkContext(context.Background(), 0); err != nil {
			return false // the flip hit the precise region: a failed read, not a damaged one
		}
		body, degraded, v := directRender(t, a, 0)
		vr := variant{body: body, degraded: degraded}
		for _, f := range v.Frames {
			vr.frames = append(vr.frames, frameBytes(f))
		}
		variants = append(variants, vr)
		containers = append(containers, store.NewSnapshotBackend(container))
		return true
	}
	add(data)
	// Flip one byte at a few depths of chunk 0's payload, back from its end:
	// the approximate streams come last.
	for k := int64(0); k < 6; k++ {
		bad := bytes.Clone(data)
		bad[info.Offset+info.Length-1-k*info.Length/12] ^= 0x55
		add(bad)
	}
	if len(variants) < 3 {
		t.Fatalf("only %d readable variants; the test needs the clean one and two damaged", len(variants))
	}
	for v := 1; v < len(variants); v++ {
		if variants[v].degraded == "" || bytes.Equal(variants[v].body, variants[0].body) {
			t.Fatalf("variant %d: degraded %q, body equal to clean %v; a flipped stream must show", v, variants[v].degraded, bytes.Equal(variants[v].body, variants[0].body))
		}
	}
	nframes := len(variants[0].frames)

	dev := &switchedBackend{Backend: containers[0], containers: containers}
	mirrored := &switchedBackend{Backend: containers[0], containers: containers}
	cat, err := NewCatalog([]ArchiveSpec{
		{Name: "t", Open: func() (store.Backend, error) { return dev, nil },
			Options: []store.ArchiveOption{store.WithFaultPolicy(pol)}},
		{Name: "mirrored", Open: func() (store.Backend, error) { return mirrored, nil },
			Options: []store.ArchiveOption{store.WithFaultPolicy(pol), store.WithMirror(bytes.NewReader(data))}},
	}, WithCacheBytes(256<<10), WithPrefetch(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	// onRecord[j] is the variant whose bytes frame j's record was made of.
	onRecord := make([]int, nframes)
	for j := range onRecord {
		onRecord[j] = -1
	}
	packed := map[int]bool{} // the lengths the chunk's records were packed at
	read := func(step string, v int) (parsed int) {
		t.Helper()
		dev.cur.Store(int32(v))
		before := counterTotal(cat, obs.CtrFramesReplayed)
		r := serveDirect(t, cat, pathOf("t", 0))
		dropRenderings(cat) // every request is a cold miss
		r.wantCache(t, "miss")
		if !bytes.Equal(r.body, variants[v].body) {
			t.Fatalf("%s: body is not a decode of the bytes variant %d returns", step, v)
		}
		if got := r.header.Get("X-Videoapp-Degraded"); got != variants[v].degraded {
			t.Fatalf("%s: X-Videoapp-Degraded %q, want %q", step, got, variants[v].degraded)
		}
		wantReplayed := 0
		for j := range onRecord {
			if onRecord[j] >= 0 && variants[onRecord[j]].frames[j] == variants[v].frames[j] {
				wantReplayed++
			} else {
				onRecord[j] = v
			}
		}
		if got := counterTotal(cat, obs.CtrFramesReplayed) - before; got != int64(wantReplayed) {
			t.Fatalf("%s: %d frames replayed, want %d (those whose bytes are on record)", step, got, wantReplayed)
		}
		// A re-record is re-packed and re-charged: the tier's cost is the
		// mapping that holds the records.
		cost := cat.syntax.Stats().Cost
		if held := heldBytes(cat); cost != held || cost == 0 {
			t.Fatalf("%s: tier charged %d B for records of %d B", step, cost, held)
		}
		packed[residentRecords(t, cat, "t", 0).buf.Len()] = true
		return nframes - wantReplayed
	}
	if parsed := read("first clean read", 0); parsed != nframes {
		t.Fatalf("first read parsed %d of %d frames", parsed, nframes)
	}
	if parsed := read("damaged read after a clean one", 1); parsed == 0 {
		t.Fatal("the damage reached no frame: the test cannot tell a replayed damaged read from a parsed one")
	}
	if parsed := read("clean read after a damaged one", 0); parsed == 0 {
		t.Fatal("the clean read replayed every frame although the damaged read had re-recorded some")
	}
	if parsed := read("clean read again", 0); parsed != 0 {
		t.Fatalf("a repeat of the clean read parsed %d frames", parsed)
	}
	rng := rand.New(rand.NewSource(24))
	for step := 0; step < 40; step++ {
		v := rng.Intn(len(variants))
		read(fmt.Sprintf("random step %d (variant %d)", step, v), v)
	}
	if len(packed) < 2 {
		t.Fatal("every record had the same size: re-packing was never exercised")
	}

	// Mirror-repaired: the primary is damaged, the mirror supplies the clean
	// bytes, so the response is the clean one without a verdict — and the
	// clean device read next replays all of it.
	for pass, v := range []int{1, 0} {
		mirrored.cur.Store(int32(v))
		before := counterTotal(cat, obs.CtrFramesReplayed)
		r := serveDirect(t, cat, pathOf("mirrored", 0))
		dropRenderings(cat)
		if r.status != http.StatusOK || !bytes.Equal(r.body, variants[0].body) || r.header.Get("X-Videoapp-Degraded") != "" {
			t.Fatalf("mirrored pass %d: status %d degraded %q, body clean %v", pass, r.status, r.header.Get("X-Videoapp-Degraded"), bytes.Equal(r.body, variants[0].body))
		}
		if got, want := counterTotal(cat, obs.CtrFramesReplayed)-before, int64(pass*nframes); got != want {
			t.Fatalf("mirrored pass %d: %d frames replayed, want %d", pass, got, want)
		}
	}
	if got := counterTotal(cat, obs.CtrMirrorReads); got == 0 {
		t.Fatal("the mirrored tenant never read its mirror")
	}
}

// TestRecordTierSharesOneBudget: under a seeded random workload from several
// clients — equal chunks at once, distinct chunks, readahead on — over three
// archives and a budget far below the working set, every body is right and
// rendered cost + record cost never exceeds the one budget; both tiers evict.
func TestRecordTierSharesOneBudget(t *testing.T) {
	const gops, clients = 6, 4
	c := containerOf(t, gops, nil)
	names := []string{"a", "b", "c"}
	specs := make([]ArchiveSpec, len(names))
	for n, name := range names {
		specs[n] = snapshotSpec(name, c.data)
	}
	// Room for two renderings in one strict-LRU shard; the record tier's
	// share then holds a few of the eighteen chunks' records.
	budget := c.chunkBytes() * 3
	cat, err := NewCatalog(specs, WithCacheBytes(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()

	rngs := make([]*rand.Rand, clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(1000 + i)))
	}
	body := wantBody(c.want)
	runClients(t, clients, 60, func(path string) response { return serveDirect(t, cat, path) }, func(c, r int) string {
		name, i := names[rngs[c].Intn(len(names))], rngs[c].Intn(gops)
		switch {
		case r%10 == 0:
			name, i = names[0], (r/10)%gops // everyone at once on one chunk
		case c == 0:
			name, i = names[1], r%gops // a sequential reader: readahead runs
		}
		return pathOf(name, i)
	}, func(r response) error {
		if err := body(r); err != nil {
			return err
		}
		if rendered, records := cat.CacheStats().Cost, cat.syntax.Stats().Cost; rendered+records > budget {
			return fmt.Errorf("rendered %d + records %d over the budget %d", rendered, records, budget)
		}
		return nil
	})
	settle(t, cat)
	rs, ss := cat.CacheStats(), cat.syntax.Stats()
	if rs.Evictions == 0 || ss.Evictions == 0 {
		t.Fatalf("evictions: rendered %d, records %d; the workload must overflow both tiers", rs.Evictions, ss.Evictions)
	}
	if ss.Hits == 0 || counterTotal(cat, obs.CtrFramesReplayed) == 0 {
		t.Fatalf("record tier %+v, %d frames replayed: no repeat miss found its records", ss, counterTotal(cat, obs.CtrFramesReplayed))
	}
	if rs.Cost+ss.Cost > budget {
		t.Fatalf("at rest: rendered %d + records %d over the budget %d", rs.Cost, ss.Cost, budget)
	}
}

// TestRecordTierPurgedWithItsSpace: the records of a space leave with it —
// on Remove, on idle close, on the close before a reopen — so the strict-LRU
// tier never holds bytes no request can reach, and a reopened archive (a new
// space) replays nothing of the previous open.
func TestRecordTierPurgedWithItsSpace(t *testing.T) {
	data := containerOf(t, 2, nil).data
	cat, err := NewCatalog([]ArchiveSpec{snapshotSpec("a", data), snapshotSpec("b", data)},
		WithIdleTimeout(time.Minute), WithPrefetch(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	read := func(name string) {
		t.Helper()
		for i := 0; i < 2; i++ {
			serveDirect(t, cat, pathOf(name, i)).wantCache(t, "miss")
		}
	}
	spaces := func() map[string]int {
		m := map[string]int{}
		for _, k := range recordKeys(cat) {
			m[k.Space]++
		}
		return m
	}
	read("a")
	read("b")
	spaceA, spaceB := spaceOf(cat, "a"), spaceOf(cat, "b")
	if got := spaces(); got[spaceA] != 2 || got[spaceB] != 2 || len(got) != 2 {
		t.Fatalf("record spaces %v, want two chunks each of %s and %s", got, spaceA, spaceB)
	}

	if err := cat.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := spaces(); got[spaceB] != 2 || len(got) != 1 {
		t.Fatalf("record spaces after Remove(a): %v, want only %s", got, spaceB)
	}
	if cost, held := cat.syntax.Stats().Cost, heldBytes(cat); cost != held || cost == 0 {
		t.Fatalf("after Remove(a): tier charged %d B for records of %d B", cost, held)
	}

	if n := cat.CloseIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("CloseIdle closed %d archives, want 1", n)
	}
	if ss := cat.syntax.Stats(); ss.Cost != 0 || ss.Len != 0 {
		t.Fatalf("record tier after idle close: %+v, want empty", ss)
	}

	// Reopened: a new space, so the same chunks parse again and leave new
	// records, which the catalog's Close drops.
	before := counterTotal(cat, obs.CtrFramesReplayed)
	read("b")
	if got := counterTotal(cat, obs.CtrFramesReplayed); got != before {
		t.Fatalf("%d frames replayed across a reopen", got-before)
	}
	if reopened := spaceOf(cat, "b"); reopened == spaceB || spaces()[reopened] != 2 {
		t.Fatalf("record spaces after reopen: %v (was %s, now %s)", spaces(), spaceB, reopened)
	}
	cat.Close()
	if ss := cat.syntax.Stats(); ss.Cost != 0 || ss.Len != 0 {
		t.Fatalf("record tier after Close: %+v, want empty", ss)
	}
}

// BenchmarkMaterialize is the cold-chunk path without sockets or cache
// lookups around it, on the test archive's 96×64 four-frame chunk: read from
// a MemBackend, decode, render. parse runs under a budget whose record tier
// retains nothing, so every iteration entropy-decodes (and records, as a
// first miss does); replay finds the chunk's records resident.
func BenchmarkMaterialize(b *testing.B) {
	data := containerOf(b, 1, nil).data
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"parse", 1}, {"replay", defaultCacheBytes}} {
		b.Run(bc.name, func(b *testing.B) {
			cat := serveOne(b, ArchiveSpec{Open: func() (store.Backend, error) { return store.NewMemBackend(data), nil }},
				WithCacheBytes(bc.budget), WithPrefetch(0))
			tn, a, space, release, err := cat.acquire(testArchive)
			if err != nil {
				b.Fatal(err)
			}
			defer release()
			materialize := func() {
				p, err := cat.materialize(context.Background(), tn, a, space, 0)
				if err != nil {
					b.Fatal(err)
				}
				p.buf.Release() // the load's reference, which a cache would own
			}
			materialize()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				materialize()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/chunk")
			wantReplays := int64(0)
			if bc.name == "replay" {
				wantReplays = int64(b.N)
			}
			if got := counterTotal(cat, obs.CtrServeReplays); got != wantReplays {
				b.Fatalf("%d of %d timed materializations replayed, want %d", got, b.N, wantReplays)
			}
		})
	}
}
