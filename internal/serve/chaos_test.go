package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videoapp/internal/faultio"
	"videoapp/internal/obs"
	"videoapp/internal/store"
)

// chaosPolicy is the fault policy every chaos-path test runs under: enough
// retries to ride out back-to-back transient draws, negligible backoff so
// the suite stays fast.
func chaosPolicy() store.FaultPolicy {
	return store.FaultPolicy{
		MaxRetries:   3,
		RetryBackoff: time.Microsecond,
		MaxBackoff:   50 * time.Microsecond,
	}
}

// chaosProfile is the acceptance fault mix: 1% transient errors, 0.1%
// persistent corruption per read.
func chaosProfile(seed int64) faultio.Profile {
	return faultio.Profile{Seed: seed, TransientRate: 0.01, CorruptRate: 0.001}
}

// chaosReplay runs one deterministic single-threaded pass over every chunk
// of data through a fresh faultio reader with the given seed: it returns
// the per-chunk degraded schemes (nil entry = clean read), whether every
// chunk was readable (possibly degraded), and the canonical fault log.
func chaosReplay(data []byte, seed int64) ([][]string, bool, []string) {
	fr := faultio.Wrap(store.NewSnapshotBackend(data), chaosProfile(seed))
	a, err := store.OpenArchiveBackend(fr, store.WithFaultPolicy(chaosPolicy()))
	if err != nil {
		return nil, false, nil
	}
	degraded := make([][]string, a.NumChunks())
	ok := true
	for i := 0; i < a.NumChunks(); i++ {
		cr, err := a.ReadChunkContext(context.Background(), i)
		if err != nil {
			ok = false
			continue
		}
		degraded[i] = cr.Degraded
	}
	var log []string
	for _, f := range fr.Faults() {
		log = append(log, f.String())
	}
	return degraded, ok, log
}

// findChaosSeed deterministically scans seeds for the acceptance scenario:
// the archive opens and every chunk reads successfully under the fault
// profile, with at least one chunk degraded and at least one clean. The
// scan itself is reproducible, so the whole suite is seed-stable without a
// hardcoded magic number going stale when the container layout changes. It
// returns 0 when no seed in 1..4096 qualifies.
func findChaosSeed(data []byte) int64 {
	for seed := int64(1); seed <= 4096; seed++ {
		degraded, ok, _ := chaosReplay(data, seed)
		if !ok {
			continue
		}
		nDeg := 0
		for _, d := range degraded {
			if len(d) > 0 {
				nDeg++
			}
		}
		if nDeg >= 1 && nDeg < len(degraded) {
			return seed
		}
	}
	return 0
}

// chaosArchive is one tenant of a chaos run: the corpus container of gops
// GOPs on a backend — "file" (a read-only file), "mem" (a memory region),
// "flaky" (a snapshot behind a faultio decorator that draws chaosProfile from
// the container's vetted seed, opened under chaosPolicy) or "damaged" (a
// memory region whose last chunk has a flipped byte in its precisely stored
// region, so every read of that chunk fails verification).
type chaosArchive struct {
	name, backend string
	gops          int
}

// chaosResp is one response of the sequential replay, everything a client
// can observe of it.
type chaosResp struct {
	Archive  string
	Status   int
	Degraded string
	Body     string
}

// chaosRun is the acceptance harness of the chunk server over faulty media;
// a catalog of one archive is the single-archive server. It requires:
//
//   - replay determinism: two fresh catalogs answer the same sequential
//     request order — every chunk of every archive, in catalog order — with
//     identical statuses, degradation headers and bodies; a damaged chunk
//     answers 503 corrupt_record and every other chunk 200, at least one
//     response is degraded, only flaky archives degrade, and a response
//     without the header is the reference render;
//   - availability: a catalog built with options takes 24 requests from
//     each of 32 concurrent clients, archives interleaved, and answers
//     no 5xx but 503; every 200 names its archive and carries the replay's
//     body and verdict for its chunk;
//   - accounting: serve_chunk_degraded equals the degraded responses the
//     clients saw, and there is at least one.
//
// It returns the concurrent run's catalog for the caller's own assertions.
func chaosRun(t *testing.T, archives []chaosArchive, options ...Option) *Catalog {
	const clients, perClient = 32, 24
	t.Helper()
	dir := t.TempDir()
	var specs []ArchiveSpec
	containers := map[string]*container{}
	for _, ar := range archives {
		c := containerOf(t, ar.gops, nil)
		containers[ar.name] = c
		spec := ArchiveSpec{Name: ar.name}
		switch ar.backend {
		case "file":
			path := filepath.Join(dir, ar.name+".vacs")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			spec.Open = func() (store.Backend, error) { return store.OpenFileBackend(path, false) }
		case "mem":
			spec.Open = func() (store.Backend, error) { return store.NewMemBackend(c.data), nil }
		case "flaky":
			// A fresh decorator per open (the lazy-reopen contract) restarts
			// from the same seed, so identical request sequences replay
			// identical faults.
			profile := chaosProfile(c.chaosSeed(t))
			spec.Open = func() (store.Backend, error) {
				return faultio.Wrap(store.NewSnapshotBackend(c.data), profile), nil
			}
			spec.Options = []store.ArchiveOption{store.WithFaultPolicy(chaosPolicy())}
		case "damaged":
			bad := bytes.Clone(c.data)
			bad[c.info(t, len(c.want)-1).Offset] ^= 0x55 // a payload starts with its precise region
			spec.Open = func() (store.Backend, error) { return store.NewMemBackend(bad), nil }
		default:
			t.Fatalf("unknown backend %q", ar.backend)
		}
		specs = append(specs, spec)
	}
	newCatalog := func(options ...Option) *Catalog {
		cat, err := NewCatalog(specs, options...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cat.Close() })
		return cat
	}

	replay := func() map[string]chaosResp {
		cat := newCatalog()
		defer cat.Close()
		out := map[string]chaosResp{}
		for _, ar := range archives {
			for i := range containers[ar.name].want {
				r := serveDirect(t, cat, pathOf(ar.name, i))
				out[r.path] = chaosResp{r.header.Get("X-Archive-Name"), r.status, r.header.Get("X-Videoapp-Degraded"), string(r.body)}
			}
		}
		return out
	}
	ref := replay()
	if again := replay(); !reflect.DeepEqual(ref, again) {
		t.Fatal("two same-seed replays answered differently")
	}
	nDegraded := 0
	for _, ar := range archives {
		for i, want := range containers[ar.name].want {
			switch r := ref[pathOf(ar.name, i)]; {
			case ar.backend == "damaged" && i == len(containers[ar.name].want)-1:
				if r.Status != http.StatusServiceUnavailable || !strings.Contains(r.Body, `"corrupt_record"`) {
					t.Fatalf("replay of the damaged chunk %s/%d: status %d %s, want 503 corrupt_record", ar.name, i, r.Status, r.Body)
				}
			case r.Status != http.StatusOK || r.Archive != ar.name:
				t.Fatalf("replay %s/%d: status %d from archive %q, want 200 from %q", ar.name, i, r.Status, r.Archive, ar.name)
			case r.Degraded != "" && ar.backend != "flaky":
				t.Fatalf("clean archive %q answered degraded (%s)", ar.name, r.Degraded)
			case r.Degraded != "":
				nDegraded++
			case r.Body != string(want):
				t.Fatalf("replay %s/%d: an undegraded body differs from the reference render", ar.name, i)
			}
		}
	}
	if nDegraded == 0 {
		t.Fatal("the vetted seed produced no degraded response through the catalog")
	}

	cat := newCatalog(options...)
	ts := httptest.NewServer(cat.Handler())
	defer ts.Close()
	var degraded atomic.Int64
	runClients(t, clients, perClient, overSocket(t, ts), func(c, r int) string {
		ar := archives[(c+r)%len(archives)]
		return pathOf(ar.name, (c*perClient+r)%len(containers[ar.name].want))
	}, func(r response) error {
		switch {
		case r.status == http.StatusServiceUnavailable:
			return nil
		case r.status != http.StatusOK:
			return fmt.Errorf("%s: status %d (503 is the only acceptable failure): %s", r.path, r.status, r.body)
		}
		want, h := ref[strings.TrimPrefix(r.path, ts.URL)], r.header.Get("X-Videoapp-Degraded")
		if h != "" {
			degraded.Add(1)
		}
		if got := r.header.Get("X-Archive-Name"); got != want.Archive || h != want.Degraded || string(r.body) != want.Body {
			return fmt.Errorf("%s: archive %q, degraded %q, body equal %v; the replay's are %q and %q",
				r.path, got, h, string(r.body) == want.Body, want.Archive, want.Degraded)
		}
		return nil
	})
	if degraded.Load() == 0 {
		t.Fatal("no degraded responses despite a vetted degradable chunk")
	}
	if got := cat.Metrics().Snapshot().CounterTotal(obs.CtrServeDegraded); got != degraded.Load() {
		t.Fatalf("serve_chunk_degraded = %d, clients observed %d degraded responses", got, degraded.Load())
	}
	return cat
}

// TestChaosServe is the acceptance chaos test of one archive: a chunk server
// over a deterministically faulty device (1% transient, 0.1% corrupt) takes
// 768 requests from 32 concurrent clients under chaosRun's contract. On top
// of it the fault sequence is reproducible at the store: two sequential
// replays over the same seed yield identical fault logs and degradation
// verdicts; the read path retried; and readahead, which ran under the same
// faults, settled every load it issued at most once.
func TestChaosServe(t *testing.T) {
	c := containerOf(t, 6, nil)
	seed := c.chaosSeed(t)
	deg1, ok1, log1 := chaosReplay(c.data, seed)
	deg2, ok2, log2 := chaosReplay(c.data, seed)
	if !ok1 || !ok2 {
		t.Fatal("seed vetted by findChaosSeed must read every chunk")
	}
	if len(log1) == 0 {
		t.Fatal("chaos profile injected no faults")
	}
	if fmt.Sprint(log1) != fmt.Sprint(log2) {
		t.Fatalf("fault logs differ between identical-seed replays:\n%v\n%v", log1, log2)
	}
	if fmt.Sprint(deg1) != fmt.Sprint(deg2) {
		t.Fatalf("degradation verdicts differ between identical-seed replays:\n%v\n%v", deg1, deg2)
	}

	s := chaosRun(t, []chaosArchive{{testArchive, "flaky", 6}})
	if s.Metrics().Snapshot().CounterTotal(obs.CtrReadRetries) == 0 {
		t.Fatal("no read retries recorded under a 1% transient profile")
	}
	s.Close()
	snap := s.Metrics().Snapshot()
	issued := snap.CounterTotal(obs.CtrServePrefetchIssued)
	settled := snap.CounterTotal(obs.CtrServePrefetchUseful) + snap.CounterTotal(obs.CtrServePrefetchWasted)
	if issued == 0 || settled > issued {
		t.Fatalf("readahead settled %d of %d issued loads", settled, issued)
	}
}

// TestCatalogChaos is the multi-archive acceptance test: a catalog serving
// four archives on four backends — a read-only file, a memory region, a
// snapshot behind a faultio decorator with a seeded corruption profile, and
// a memory region with one chunk's precise region damaged — under chaosRun's
// contract, with a cache budget far below the working set so archives
// contend for (and evict each other from) the shared cache while readahead
// issues background loads. On top of it: per-archive decode/request
// counters are labeled by archive, the serve_catalog_open_archives gauge
// tracks all four opens, and the shared cache's two tiers stay under the one
// byte budget while evicting.
func TestCatalogChaos(t *testing.T) {
	const budget = int64(96 << 10)
	names := []string{"broken", "disk", "flaky", "mem"}
	cat := chaosRun(t, []chaosArchive{{"disk", "file", 3}, {"mem", "mem", 2}, {"flaky", "flaky", 4}, {"broken", "damaged", 2}},
		WithCacheBytes(budget))
	if got := cat.OpenArchives(); got != len(names) {
		t.Fatalf("OpenArchives = %d, want %d", got, len(names))
	}
	snap := cat.Metrics().Snapshot()
	if got := snap.Gauge(obs.GaugeCatalogOpenArchives, ""); got != float64(len(names)) {
		t.Fatalf("%s = %v, want %d", obs.GaugeCatalogOpenArchives, got, len(names))
	}
	for _, name := range names {
		if snap.Counter(obs.CtrServeDecodes, name) == 0 {
			t.Fatalf("no %s decodes counted for archive %q", obs.CtrServeDecodes, name)
		}
		if snap.Counter(obs.CtrServeCacheMisses, name) == 0 {
			t.Fatalf("no cache misses counted for archive %q", name)
		}
	}
	cs := cat.CacheStats()
	if records := cat.syntax.Stats().Cost; cs.Cost+records > budget {
		t.Fatalf("shared cache cost %d + parse records %d over budget %d", cs.Cost, records, budget)
	}
	if cs.Evictions == 0 {
		t.Fatal("working set over budget evicted nothing")
	}
	if got := cat.Names(); !reflect.DeepEqual(got, names) {
		t.Fatalf("Names() = %v, want %v", got, names)
	}
	// A read that fails is no decode: with readahead shut down, three 503s
	// for the broken archive's damaged chunk leave its decode counter as it
	// was.
	cat.Close()
	decodes := cat.Metrics().Snapshot().Counter(obs.CtrServeDecodes, "broken")
	for range 3 {
		if r := serveDirect(t, cat, pathOf("broken", 1)); r.status != http.StatusServiceUnavailable {
			t.Fatalf("damaged chunk: status %d, want 503", r.status)
		}
	}
	if got := cat.Metrics().Snapshot().Counter(obs.CtrServeDecodes, "broken"); got != decodes {
		t.Fatalf("%s of %q went from %d to %d over three failed reads", obs.CtrServeDecodes, "broken", decodes, got)
	}
}

// TestServeDegradedHeader pins the single-fault degradation contract
// end to end without randomness: one corrupted approximate stream answers
// 200 + X-Videoapp-Degraded on the cold read and again on the cache hit,
// with the counter tracking responses, not decodes.
func TestServeDegradedHeader(t *testing.T) {
	c := containerOf(t, 2, nil)
	info := c.info(t, 0)
	// Corrupt the last byte of chunk 0's payload: payloads end with the
	// final approximate stream, so this lands in a degradable region.
	bad := bytes.Clone(c.data)
	bad[info.Offset+info.Length-1] ^= 0x55
	// Readahead off: the test pins the exact decode count of the two
	// foreground requests.
	s := serveOne(t, ArchiveSpec{
		Open:    func() (store.Backend, error) { return store.NewSnapshotBackend(bad), nil },
		Options: []store.ArchiveOption{store.WithFaultPolicy(chaosPolicy())},
	}, WithPrefetch(0))
	for pass := 1; pass <= 2; pass++ {
		if r := serveDirect(t, s, chunkPath(0)); r.status != http.StatusOK || r.header.Get("X-Videoapp-Degraded") == "" {
			t.Fatalf("pass %d: status %d degraded %q, want 200 and the header", pass, r.status, r.header.Get("X-Videoapp-Degraded"))
		}
	}
	snap := s.Metrics().Snapshot()
	if got := snap.CounterTotal(obs.CtrServeDegraded); got != 2 {
		t.Fatalf("serve_chunk_degraded = %d, want 2 (one per response, cache hit included)", got)
	}
	if got := snap.CounterTotal(obs.CtrServeDecodes); got != 1 {
		t.Fatalf("serve_chunk_decodes = %d, want 1 (second response from cache)", got)
	}

	// A clean chunk on the same server carries no degraded header.
	if r := serveDirect(t, s, chunkPath(1)); r.status != http.StatusOK || r.header.Get("X-Videoapp-Degraded") != "" {
		t.Fatalf("clean chunk: status %d degraded %q", r.status, r.header.Get("X-Videoapp-Degraded"))
	}
}

// togglingAt fails every read with a device error while broken is set.
type togglingAt struct {
	store.Backend
	broken atomic.Bool
}

var errDeviceDown = errors.New("device offline")

func (d *togglingAt) ReadAt(p []byte, off int64) (int, error) {
	if d.broken.Load() {
		return 0, errDeviceDown
	}
	return d.Backend.ReadAt(p, off)
}

// TestCircuitBreakerShedsAndRecovers drives the breaker through its full
// cycle: consecutive hard failures open it, open means immediate 503 +
// Retry-After without touching the device, and after the cooldown a
// healthy device closes it again.
func TestCircuitBreakerShedsAndRecovers(t *testing.T) {
	dev := &togglingAt{Backend: store.NewSnapshotBackend(containerOf(t, 2, nil).data)}
	pol := store.FaultPolicy{
		MaxRetries:       -1, // first failure is final: each request = one hard failure
		RetryBackoff:     time.Microsecond,
		MaxBackoff:       time.Microsecond,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * time.Millisecond,
	}
	// Degenerate cache: every request hits the device.
	s := serveOne(t, ArchiveSpec{
		Open:    func() (store.Backend, error) { return dev, nil },
		Options: []store.ArchiveOption{store.WithFaultPolicy(pol)},
	}, WithCacheBytes(1))
	get := func(i int) (int, string) {
		r := serveDirect(t, s, chunkPath(i))
		return r.status, r.header.Get("Retry-After")
	}

	// Healthy during indexing: the index request opens the archive.
	if r := serveDirect(t, s, "/v1/archives/"+testArchive); r.status != http.StatusOK {
		t.Fatalf("healthy index read: status %d, want 200", r.status)
	}
	dev.broken.Store(true)
	// Three hard failures reach the threshold; each answers 503+Retry-After.
	for i := 0; i < pol.BreakerThreshold; i++ {
		status, retryAfter := get(0)
		if status != http.StatusServiceUnavailable || retryAfter == "" {
			t.Fatalf("failure %d: status %d retry-after %q, want 503 with hint", i, status, retryAfter)
		}
	}
	// The breaker is open: requests shed before touching the device.
	status, retryAfter := get(1)
	if status != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("shed request: status %d retry-after %q", status, retryAfter)
	}
	snap := s.Metrics().Snapshot()
	if snap.CounterTotal(obs.CtrServeShed) == 0 {
		t.Fatal("open breaker shed nothing")
	}
	if snap.Gauge(obs.GaugeServeBreakerOpen, testArchive) != 1 {
		t.Fatalf("serve_breaker_open = %v, want 1", snap.Gauge(obs.GaugeServeBreakerOpen, testArchive))
	}

	// Device recovers; after the cooldown the probe succeeds and closes
	// the breaker.
	dev.broken.Store(false)
	time.Sleep(pol.BreakerCooldown + 50*time.Millisecond)
	if status, _ := get(0); status != http.StatusOK {
		t.Fatalf("post-cooldown probe: status %d, want 200", status)
	}
	snap = s.Metrics().Snapshot()
	if snap.Gauge(obs.GaugeServeBreakerOpen, testArchive) != 0 {
		t.Fatalf("serve_breaker_open = %v after recovery, want 0", snap.Gauge(obs.GaugeServeBreakerOpen, testArchive))
	}
	if status, _ := get(1); status != http.StatusOK {
		t.Fatalf("post-recovery read: status %d, want 200", status)
	}
}

// TestTenantPolicyIsOnePolicy pins the one route a fault policy takes to a
// tenant: the store.WithFaultPolicy in its ArchiveSpec.Options is the policy
// the archive opens under, and the tenant's breaker takes its threshold from
// that opened archive, so the retries of a read and the breaker judging it
// never come from two policies. Without the option both run on the defaults.
func TestTenantPolicyIsOnePolicy(t *testing.T) {
	data := containerOf(t, 2, nil).data
	// One retry per failed region read (default 2), open after two hard
	// failures (default 8): with the device down, three chunk requests cost
	// two failed reads of one retry each and then one shed request.
	pol := store.FaultPolicy{
		MaxRetries: 1, RetryBackoff: time.Microsecond, MaxBackoff: time.Microsecond,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
	}
	for _, tc := range []struct {
		name          string
		options       []store.ArchiveOption
		retries, shed int64
	}{
		{"spec", []store.ArchiveOption{store.WithFaultPolicy(pol)}, 2, 1},
		// The defaults: two retries per read and a breaker that three
		// failures do not open.
		{"defaults", nil, 6, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := &togglingAt{Backend: store.NewSnapshotBackend(data)}
			s := serveOne(t, ArchiveSpec{
				Open:    func() (store.Backend, error) { return dev, nil },
				Options: tc.options,
			}, WithCacheBytes(1), WithPrefetch(0))
			if r := serveDirect(t, s, "/v1/archives/"+testArchive); r.status != http.StatusOK {
				t.Fatalf("healthy index read: status %d, want 200", r.status)
			}
			dev.broken.Store(true)
			for i := 0; i < 3; i++ {
				if r := serveDirect(t, s, chunkPath(0)); r.status != http.StatusServiceUnavailable {
					t.Fatalf("request %d on a dead device: status %d, want 503", i, r.status)
				}
			}
			snap := s.Metrics().Snapshot()
			if got := snap.CounterTotal(obs.CtrReadRetries); got != tc.retries {
				t.Errorf("%s = %d, want %d", obs.CtrReadRetries, got, tc.retries)
			}
			if got := snap.CounterTotal(obs.CtrServeShed); got != tc.shed {
				t.Errorf("%s = %d, want %d", obs.CtrServeShed, got, tc.shed)
			}
		})
	}
}
