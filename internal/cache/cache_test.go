package cache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getOrLoader is the lookup surface Cache and Space share, so the helpers
// below serve both.
type getOrLoader[K comparable, V any] interface {
	GetOrLoad(ctx context.Context, key K, load func(context.Context) (V, error)) (V, bool, error)
}

// put makes val resident under key the one way the cache admits values: as
// the result of a load (a miss and a load in the counters).
func put[K comparable, V any](c getOrLoader[K, V], key K, val V) {
	c.GetOrLoad(context.Background(), key, func(context.Context) (V, error) { return val, nil })
}

var errAbsent = errors.New("absent")

// lookup is one request for key whose loader fails, so a miss leaves
// nothing behind; a hit returns the resident value and marks it most
// recently used, exactly like a served request.
func lookup[K comparable, V any](c getOrLoader[K, V], key K) (V, bool) {
	v, hit, _ := c.GetOrLoad(context.Background(), key, func(context.Context) (V, error) {
		var zero V
		return zero, errAbsent
	})
	return v, hit
}

func TestGetAddEvictLRU(t *testing.T) {
	c := New[int, string](3, nil) // nil cost: capacity of 3 entries
	put(c, 1, "a")
	put(c, 2, "b")
	put(c, 3, "c")
	if v, ok := lookup(c, 1); !ok || v != "a" { // touch 1: now 2 is LRU
		t.Fatalf("1 must be resident, got %q, %v", v, ok)
	}
	put(c, 4, "d") // evicts 2
	if c.Contains(2) {
		t.Fatal("2 must have been evicted as LRU")
	}
	for _, k := range []int{1, 3, 4} {
		if !c.Contains(k) {
			t.Fatalf("%d must be resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Len != 3 {
		t.Fatalf("stats %+v: want 1 eviction, 3 resident", s)
	}
}

func TestCostBasedEviction(t *testing.T) {
	c := New[int, string](10, func(v string) int64 { return int64(len(v)) })
	put(c, 1, "aaaa") // cost 4
	put(c, 2, "bbbb") // cost 4
	put(c, 3, "cc")   // cost 2, total 10: all fit
	if s := c.Stats(); s.Cost != 10 || s.Len != 3 {
		t.Fatalf("cost %d len %d, want 10/3", s.Cost, s.Len)
	}
	put(c, 4, "ddd") // cost 3: evicts 1 (LRU), total 9
	if c.Contains(1) {
		t.Fatal("1 must have been evicted")
	}
	if cost := c.Stats().Cost; cost != 9 {
		t.Fatalf("cost %d, want 9", cost)
	}
	// An entry larger than the whole budget is not retained, and evicts
	// nothing on its way out.
	put(c, 5, "0123456789ABCDEF")
	if c.Contains(5) {
		t.Fatal("oversized entry must not be retained")
	}
	if s := c.Stats(); s.Cost != 9 || s.Len != 3 {
		t.Fatalf("oversized entry disturbed residency: cost %d len %d", s.Cost, s.Len)
	}
}

func TestGetOrLoadCachesSuccess(t *testing.T) {
	c := New[string, int](8, nil)
	calls := 0
	load := func(context.Context) (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, _, err := c.GetOrLoad(context.Background(), "k", load)
		if err != nil || v != 42 {
			t.Fatalf("GetOrLoad = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("loader ran %d times, want 1", calls)
	}
}

func TestGetOrLoadDoesNotCacheErrors(t *testing.T) {
	c := New[string, int](8, nil)
	boom := errors.New("boom")
	calls := 0
	load := func(context.Context) (int, error) { calls++; return 0, boom }
	for i := 0; i < 2; i++ {
		if _, _, err := c.GetOrLoad(context.Background(), "k", load); !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed load must not be cached: %d calls, want 2", calls)
	}
}

// TestGetOrLoadReportsResidency pins the hit flag: miss on the load, hit
// once resident, miss again for a coalesced waiter.
func TestGetOrLoadReportsResidency(t *testing.T) {
	c := New[string, int](8, nil)
	if _, hit, _ := c.GetOrLoad(context.Background(), "k", func(context.Context) (int, error) { return 1, nil }); hit {
		t.Fatal("first GetOrLoad reported hit")
	}
	if _, hit, _ := c.GetOrLoad(context.Background(), "k", func(context.Context) (int, error) { return 2, nil }); !hit {
		t.Fatal("resident GetOrLoad reported miss")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want exactly 1 hit / 1 miss (no double counting)", s)
	}

	// A waiter coalesced onto someone else's flight reports a miss. The
	// waiter's context is pre-cancelled so it returns while the flight is
	// still pending — the value provably was not resident at its lookup.
	release := make(chan struct{})
	started := make(chan struct{})
	go c.GetOrLoad(context.Background(), "slow", func(context.Context) (int, error) {
		close(started)
		<-release
		return 3, nil
	})
	<-started
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, hit, err := c.GetOrLoad(cancelled, "slow", func(context.Context) (int, error) { return 4, nil })
	close(release)
	if hit {
		t.Fatal("coalesced waiter reported hit; the value was not resident at lookup")
	}
	if err == nil {
		t.Fatal("cancelled waiter returned no error")
	}
}

// TestLoadPanicIsTheFlightsError: the loader runs on a goroutine of the
// cache's own, so a panic there would take the process down; it must reach
// the caller and every coalesced waiter as an error wrapping ErrLoadPanicked,
// leave nothing behind, and let the next call load afresh.
func TestLoadPanicIsTheFlightsError(t *testing.T) {
	c := New[string, int](8, nil)
	release := make(chan struct{})
	load := func(context.Context) (int, error) {
		<-release
		panic("decoder bug")
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := c.GetOrLoad(context.Background(), "k", load)
			errs <- err
		}()
	}
	// One of the two started the flight; wait for the other to join it.
	for c.Stats().Misses < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrLoadPanicked) || !strings.Contains(err.Error(), "decoder bug") {
			t.Fatalf("want ErrLoadPanicked carrying the panic value, got %v", err)
		}
	}
	if s := c.Stats(); s.Loads != 1 {
		t.Fatalf("Stats.Loads = %d, want 1 (the waiter coalesced)", s.Loads)
	}
	if c.Contains("k") {
		t.Fatal("a panicked load left its key resident or in flight")
	}
	v, hit, err := c.GetOrLoad(context.Background(), "k", func(context.Context) (int, error) { return 5, nil })
	if v != 5 || hit || err != nil {
		t.Fatalf("load after a panic: %d, %v, %v (want 5 from a fresh load)", v, hit, err)
	}
}

// stampede starts perKey concurrent readers of each of keys cold keys and
// holds every key's load until all readers have piled into its flight:
// each key's loader must run exactly once and every reader observe its
// value.
func stampede(t *testing.T, keys, perKey int) {
	c := New[int, int](1<<20, nil)
	loads := make([]atomic.Int64, keys)
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, keys*perKey)
	for k := 0; k < keys; k++ {
		for g := 0; g < perKey; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, _, err := c.GetOrLoad(context.Background(), k, func(context.Context) (int, error) {
					loads[k].Add(1)
					<-release // hold every reader of this key in one flight
					return k * 10, nil
				})
				if err != nil {
					errs <- err
				} else if v != k*10 {
					errs <- fmt.Errorf("key %d: got %d, want %d", k, v, k*10)
				}
			}()
		}
	}
	// Every lookup misses while the loads are held: wait until all readers
	// are in a flight, then release the loaders.
	for c.Stats().Misses < int64(keys*perKey) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := range loads {
		if got := loads[k].Load(); got != 1 {
			t.Fatalf("key %d loaded %d times under a %d-reader stampede, want exactly 1", k, got, perKey)
		}
	}
	if s := c.Stats(); s.Loads != int64(keys) {
		t.Fatalf("Stats.Loads = %d, want %d", s.Loads, keys)
	}
}

// TestSingleflightStampede pins the coalescing guarantee: N concurrent
// readers of one cold key trigger exactly one loader execution and all
// observe its value.
func TestSingleflightStampede(t *testing.T) { stampede(t, 1, 64) }

// TestShardedSingleflightStampede pins it per key: 32 readers on each of
// 32 keys at once.
func TestShardedSingleflightStampede(t *testing.T) { stampede(t, 32, 32) }

// TestWaiterCancellation: a waiter whose context ends returns promptly with
// ctx.Err while the load completes and is cached for later readers.
func TestWaiterCancellation(t *testing.T) {
	c := New[string, int](8, nil)
	release := make(chan struct{})
	load := func(context.Context) (int, error) {
		<-release
		return 9, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrLoad(ctx, "k", load)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(release)
	// The detached load still completes and caches its value.
	v, _, err := c.GetOrLoad(context.Background(), "k", func(context.Context) (int, error) {
		return 0, errors.New("must not reload")
	})
	if err != nil || v != 9 {
		t.Fatalf("after cancel: %d, %v (want cached 9)", v, err)
	}
}

// churn hammers a cache of budget unit-cost entries from eight goroutines
// under -race, each making rounds requests over a key space larger than the
// budget: loads, lookups, coalescing GetOrLoads and, with ops = 4, RemoveIf
// purges. The cost must still fit the budget at the end.
func churn(t *testing.T, budget int64, keys, rounds, ops int) {
	c := New[int, int](budget, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g*31 + i) % keys
				switch i % ops {
				case 0:
					put(c, k, k)
				case 1:
					lookup(c, k)
				case 2:
					c.GetOrLoad(context.Background(), k, func(context.Context) (int, error) { return k, nil })
				default:
					c.RemoveIf(func(key int) bool { return key == k })
				}
			}
		}()
	}
	wg.Wait()
	if s := c.Stats(); s.Cost > budget || int64(s.Len) > budget {
		t.Fatalf("%d entries of cost %d exceed the budget %d after churn", s.Len, s.Cost, budget)
	}
}

func TestConcurrentMixedAccess(t *testing.T) { churn(t, 16, 32, 200, 3) }

// TestShardedConcurrentChurn adds RemoveIf purges to the mix.
func TestShardedConcurrentChurn(t *testing.T) { churn(t, 64, 256, 500, 4) }

func TestHitRate(t *testing.T) {
	c := New[int, int](4, nil)
	put(c, 1, 1) // miss
	lookup(c, 1) // hit
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.HitRate() != 0.5 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / rate 0.5", s)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate must be 0")
	}
}

// TestReplaceTakesTheNewCost: a value rebuilt after it was loaded is swapped
// in under its key. Replace charges the new value's cost, makes it most
// recently used, evicts LRU entries until the budget holds (never the value
// itself), hands the value it replaced to the removal hook, and hands over
// the new value instead when its key has gone or it outgrew the budget.
func TestReplaceTakesTheNewCost(t *testing.T) {
	c := New[int, []byte](10, func(v []byte) int64 { return int64(len(v)) })
	var gone []string
	c.OnRemove(func(k int, v []byte) { gone = append(gone, fmt.Sprintf("%d:%d", k, len(v))) })
	for k := 1; k <= 3; k++ {
		put(c, k, []byte{}) // loaded empty: cost 0
	}
	if s := c.Stats(); s.Cost != 0 || s.Len != 3 {
		t.Fatalf("after three empty loads: %+v", s)
	}
	for k := 1; k <= 3; k++ {
		c.Replace(k, make([]byte, 4))
	}
	// 4+4+4 > 10: replacing 3 evicted 1, the least recently used.
	if s := c.Stats(); s.Cost != 8 || s.Len != 2 || s.Evictions != 1 || c.Contains(1) {
		t.Fatalf("after replacing: %+v, 1 resident %v", s, c.Contains(1))
	}
	c.Replace(2, make([]byte, 1)) // a smaller value is charged less
	if cost := c.Stats().Cost; cost != 5 {
		t.Fatalf("cost %d after replacing 2 by one byte, want 5", cost)
	}
	c.Replace(1, make([]byte, 2)) // evicted above: stays gone
	if s := c.Stats(); s.Cost != 5 || s.Len != 2 || c.Contains(1) {
		t.Fatalf("replacing an absent key changed the cache: %+v", s)
	}
	put(c, 4, []byte{1, 2, 3, 4, 5}) // 10 in all; LRU order now 3, 2, 4
	c.Replace(2, make([]byte, 3))    // 12 in all: 3 goes, 2 itself is safe at the front
	if s := c.Stats(); s.Cost != 8 || s.Len != 2 || c.Contains(3) || !c.Contains(2) {
		t.Fatalf("after growing 2 past the budget's room: %+v", s)
	}
	if v, _ := lookup(c, 2); len(v) != 3 {
		t.Fatalf("2 holds %d bytes, want the replacement's 3", len(v))
	}
	c.Replace(2, make([]byte, 11)) // outgrew the whole budget: not retained
	if s := c.Stats(); s.Cost != 5 || s.Len != 1 || c.Contains(2) {
		t.Fatalf("after an over-budget replacement: %+v, 2 resident %v", s, c.Contains(2))
	}
	want := []string{"1:0", "2:0", "1:4", "3:0", "2:4", "1:2", "3:4", "2:1", "2:3", "2:11"}
	if fmt.Sprint(gone) != fmt.Sprint(want) {
		t.Fatalf("removal hook saw %v, want %v", gone, want)
	}
}
