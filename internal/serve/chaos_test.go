package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
func chaosReplay(t *testing.T, data []byte, seed int64) ([][]string, bool, []string) {
	t.Helper()
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
// hardcoded magic number going stale when the container layout changes.
func findChaosSeed(t *testing.T, data []byte) int64 {
	t.Helper()
	for seed := int64(1); seed <= 4096; seed++ {
		degraded, ok, _ := chaosReplay(t, data, seed)
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
	t.Fatal("no seed in 1..4096 produces the degraded+clean mix; retune the profile")
	return 0
}

// TestChaosServe is the acceptance chaos test: a chunk server over a
// deterministically faulty device (1% transient, 0.1% corrupt) takes 1024
// requests from 32 concurrent clients and (a) never answers a 5xx other
// than 503, (b) flags every degraded response with the X-Videoapp-Degraded
// header and counts it in serve_chunk_degraded, and (c) the fault sequence
// is reproducible: two sequential replays over the same seed yield
// identical fault logs and degradation verdicts — asserted on top of the
// concurrent run.
func TestChaosServe(t *testing.T) {
	data := buildArchiveBytes(t, 6)
	seed := findChaosSeed(t, data)

	// Determinism, asserted twice: replay the same seed sequentially and
	// require identical fault logs and identical per-chunk verdicts.
	deg1, ok1, log1 := chaosReplay(t, data, seed)
	deg2, ok2, log2 := chaosReplay(t, data, seed)
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

	// The concurrent run: one shared faulty device under the server.
	fr := faultio.Wrap(store.NewSnapshotBackend(data), chaosProfile(seed))
	s := serveOne(t, ArchiveSpec{
		Open: func() (store.Backend, error) { return fr, nil },
	}, WithFaultPolicy(chaosPolicy()))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	chunks := len(deg1)

	const clients = 32
	const perClient = 32 // 1024 requests total
	var wg sync.WaitGroup
	var degradedResponses, served atomic.Int64
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for r := 0; r < perClient; r++ {
				i := (c*perClient + r) % chunks
				resp, err := client.Get(ts.URL + chunkPath(i))
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", c, r, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: reading body: %w", c, r, err)
					return
				}
				served.Add(1)
				if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
					errs <- fmt.Errorf("client %d req %d chunk %d: status %d (only 503 is an acceptable 5xx): %s",
						c, r, i, resp.StatusCode, body)
					return
				}
				if h := resp.Header.Get("X-Videoapp-Degraded"); h != "" {
					degradedResponses.Add(1)
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("degraded response with status %d", resp.StatusCode)
						return
					}
					if len(strings.Split(h, ",")) == 0 {
						errs <- fmt.Errorf("empty degraded header")
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := served.Load(); got != clients*perClient {
		t.Fatalf("served %d of %d requests", got, clients*perClient)
	}
	if degradedResponses.Load() == 0 {
		t.Fatal("no degraded responses despite a vetted degradable chunk")
	}
	snap := s.Metrics().Snapshot()
	if got := snap.CounterTotal(obs.CtrServeDegraded); got != degradedResponses.Load() {
		t.Fatalf("serve_chunk_degraded = %d, clients observed %d degraded responses", got, degradedResponses.Load())
	}
	if snap.CounterTotal(obs.CtrReadRetries) == 0 {
		t.Fatal("no read retries recorded under a 1% transient profile")
	}
	// Readahead ran under the same faults; every load it issued is settled
	// at most once.
	s.Close()
	snap = s.Metrics().Snapshot()
	issued := snap.CounterTotal(obs.CtrServePrefetchIssued)
	settled := snap.CounterTotal(obs.CtrServePrefetchUseful) + snap.CounterTotal(obs.CtrServePrefetchWasted)
	if issued == 0 || settled > issued {
		t.Fatalf("readahead settled %d of %d issued loads", settled, issued)
	}
}

// TestServeDegradedHeader pins the single-fault degradation contract
// end to end without randomness: one corrupted approximate stream answers
// 200 + X-Videoapp-Degraded on the cold read and again on the cache hit,
// with the counter tracking responses, not decodes.
func TestServeDegradedHeader(t *testing.T) {
	data := buildArchiveBytes(t, 2)
	info, err := openBytes(t, data).Info(0)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the last byte of chunk 0's payload: payloads end with the
	// final approximate stream, so this lands in a degradable region.
	bad := bytes.Clone(data)
	bad[info.Offset+info.Length-1] ^= 0x55
	// Readahead off: the test pins the exact decode count of the two
	// foreground requests.
	s := serveBytes(t, bad, WithFaultPolicy(chaosPolicy()), WithPrefetch(0))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for pass := 1; pass <= 2; pass++ {
		resp, err := ts.Client().Get(ts.URL + chunkPath(0))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d, want 200", pass, resp.StatusCode)
		}
		if resp.Header.Get("X-Videoapp-Degraded") == "" {
			t.Fatalf("pass %d: degraded response missing X-Videoapp-Degraded", pass)
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
	resp, err := ts.Client().Get(ts.URL + chunkPath(1))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Videoapp-Degraded") != "" {
		t.Fatalf("clean chunk: status %d degraded %q", resp.StatusCode, resp.Header.Get("X-Videoapp-Degraded"))
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
	data := buildArchiveBytes(t, 2)
	dev := &togglingAt{Backend: store.NewSnapshotBackend(data)}
	pol := store.FaultPolicy{
		MaxRetries:       -1, // first failure is final: each request = one hard failure
		RetryBackoff:     time.Microsecond,
		MaxBackoff:       time.Microsecond,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * time.Millisecond,
	}
	// Degenerate cache: every request hits the device.
	s := serveOne(t, ArchiveSpec{Open: func() (store.Backend, error) { return dev, nil }}, WithFaultPolicy(pol), WithCacheBytes(1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(i int) (int, string) {
		resp, err := ts.Client().Get(ts.URL + chunkPath(i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	// Healthy during indexing: the index request opens the archive.
	if status, _, _ := fetch(t, ts.Client(), ts.URL+"/v1/archives/"+testArchive); status != http.StatusOK {
		t.Fatalf("healthy index read: status %d, want 200", status)
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
// tenant: whichever way it arrives — catalog-wide or through the spec — the
// read retries and the breaker threshold are those of that one policy, and a
// store.WithFaultPolicy left in ArchiveSpec.Options governs neither — the
// retries of a read and the breaker judging it never come from two policies.
func TestTenantPolicyIsOnePolicy(t *testing.T) {
	data := buildArchiveBytes(t, 2)
	// One retry per failed region read (default 2), open after two hard
	// failures (default 8): with the device down, three chunk requests cost
	// two failed reads of one retry each and then one shed request.
	pol := store.FaultPolicy{
		MaxRetries: 1, RetryBackoff: time.Microsecond, MaxBackoff: time.Microsecond,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
	}
	stray := []store.ArchiveOption{store.WithFaultPolicy(store.FaultPolicy{MaxRetries: 5, RetryBackoff: time.Microsecond, MaxBackoff: time.Microsecond})}
	fast := store.FaultPolicy{RetryBackoff: time.Microsecond, MaxBackoff: time.Microsecond}
	for _, tc := range []struct {
		name          string
		spec          ArchiveSpec
		options       []Option
		retries, shed int64
	}{
		{"catalog-wide", ArchiveSpec{}, []Option{WithFaultPolicy(pol)}, 2, 1},
		{"spec", ArchiveSpec{FaultPolicy: &pol}, nil, 2, 1},
		{"spec over catalog-wide", ArchiveSpec{FaultPolicy: &pol}, []Option{WithFaultPolicy(fast)}, 2, 1},
		{"catalog-wide with a stray archive option", ArchiveSpec{Options: stray}, []Option{WithFaultPolicy(pol)}, 2, 1},
		// No tenant policy at all: the defaults, two retries per read and a
		// breaker that three failures do not open — not the stray option's.
		{"defaults with a stray archive option", ArchiveSpec{Options: stray}, nil, 6, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := &togglingAt{Backend: store.NewSnapshotBackend(data)}
			tc.spec.Open = func() (store.Backend, error) { return dev, nil }
			s := serveOne(t, tc.spec, append(tc.options, WithCacheBytes(1), WithPrefetch(0))...)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if status, _, _ := fetch(t, ts.Client(), ts.URL+"/v1/archives/"+testArchive); status != http.StatusOK {
				t.Fatalf("healthy index read: status %d, want 200", status)
			}
			dev.broken.Store(true)
			for i := 0; i < 3; i++ {
				if status, _, _ := fetch(t, ts.Client(), ts.URL+chunkPath(0)); status != http.StatusServiceUnavailable {
					t.Fatalf("request %d on a dead device: status %d, want 503", i, status)
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
