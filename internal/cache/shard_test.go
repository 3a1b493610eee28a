package cache

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDefaultShardsIsPowerOfTwo(t *testing.T) {
	n := DefaultShards()
	if n < 8 || n&(n-1) != 0 {
		t.Fatalf("DefaultShards() = %d, want a power of two >= 8", n)
	}
	if p := runtime.GOMAXPROCS(0); n < p {
		t.Fatalf("DefaultShards() = %d < GOMAXPROCS %d", n, p)
	}
}

func TestShardCountRoundsUp(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {33, 64},
	} {
		c := NewShardedHash[int, int](100, tc.ask, nil, nil)
		if got := len(c.shards); got != tc.want {
			t.Fatalf("NewShardedHash(shards=%d): %d shards, want %d", tc.ask, got, tc.want)
		}
	}
	// Zero and negative both mean auto.
	for _, ask := range []int{0, -1} {
		if got := len(NewShardedHash[int, int](100, ask, nil, nil).shards); got != DefaultShards() {
			t.Fatalf("NewShardedHash(shards=%d): %d shards, want DefaultShards() = %d", ask, got, DefaultShards())
		}
	}
}

// TestShardedGlobalBudget is the cross-shard eviction acceptance test: a
// working set far larger than the budget, spread by hash across every
// shard, must evict down to the global budget — the per-shard budgets sum
// to exactly maxCost, so the aggregate can never exceed it.
func TestShardedGlobalBudget(t *testing.T) {
	const budget = 1000
	c := NewShardedHash[int, int](budget, 8, func(int) int64 { return 7 }, nil)
	for i := 0; i < 4096; i++ {
		put(c, i, i)
	}
	if got := c.Stats().Cost; got > budget {
		t.Fatalf("total cost %d exceeds global budget %d", got, budget)
	}
	// Per-shard budgets partition the global one exactly.
	var sumBudget int64
	for i := range c.shards {
		sumBudget += c.shards[i].maxCost
		if got := c.shards[i].total.Load(); got > c.shards[i].maxCost {
			t.Fatalf("shard %d cost %d over its budget %d", i, got, c.shards[i].maxCost)
		}
	}
	if sumBudget != budget {
		t.Fatalf("shard budgets sum to %d, want %d", sumBudget, budget)
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("4096 inserts into a ~142-entry budget evicted nothing")
	}
}

// TestShardedSingleflightStampede pins the per-shard singleflight
// guarantee under -race: 32 goroutines per key, keys spread across every
// shard, and each key's loader runs exactly once while every caller
// observes its value.
func TestShardedSingleflightStampede(t *testing.T) {
	c := NewShardedHash[int, int](1<<20, 8, nil, nil)
	const keys = 32 // ~4 keys per shard
	const stampede = 32
	var loads [keys]atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, keys*stampede)
	for k := 0; k < keys; k++ {
		for g := 0; g < stampede; g++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, _, err := c.GetOrLoad(context.Background(), k, func(context.Context) (int, error) {
					loads[k].Add(1)
					<-release // hold every stampeder of this key in one flight
					return k * 10, nil
				})
				if err != nil {
					errs <- err
					return
				}
				if v != k*10 {
					errs <- fmt.Errorf("key %d: got %d, want %d", k, v, k*10)
				}
			}(k)
		}
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := range loads {
		if got := loads[k].Load(); got != 1 {
			t.Fatalf("key %d loaded %d times under a %d-goroutine stampede, want exactly 1", k, got, stampede)
		}
	}
	if s := c.Stats(); s.Loads != keys {
		t.Fatalf("Stats.Loads = %d, want %d", s.Loads, keys)
	}
}

// TestStatsSumsOverShards: Stats() must be the field-wise sum over the
// shards — checked against the known request mix — and traffic must
// actually spread over multiple shards.
func TestStatsSumsOverShards(t *testing.T) {
	c := NewShardedHash[int, int](256, 8, nil, nil)
	for i := 0; i < 128; i++ {
		put(c, i, i) // 128 misses, 128 loads
	}
	for i := 0; i < 256; i++ {
		lookup(c, i%160) // resident keys hit; 160 > 128 keys also miss and load (unretained)
	}
	got := c.Stats()
	var want Stats
	touched := 0
	for i := range c.shards {
		s := &c.shards[i]
		want.Hits += s.hits.Load()
		want.Misses += s.misses.Load()
		want.Loads += s.loads.Load()
		want.Evictions += s.evictions.Load()
		want.Len += len(s.entries)
		for _, el := range s.entries {
			want.Cost += el.Value.(*entry[int, int]).cost
		}
		if s.hits.Load()+s.misses.Load() > 0 {
			touched++
		}
	}
	if got != want {
		t.Fatalf("Stats() = %+v, sum over shards = %+v", got, want)
	}
	if got.Hits+got.Misses != 128+256 || got.Loads != got.Misses {
		t.Fatalf("Stats() = %+v does not account for 384 lookups with one load per miss", got)
	}
	if touched < 2 {
		t.Fatalf("traffic landed on %d shard(s); the hash is not spreading keys", touched)
	}
}

// TestGetOrLoadReportsResidency pins the hit flag: miss on the load, hit
// once resident, miss again for a coalesced waiter.
func TestGetOrLoadReportsResidency(t *testing.T) {
	c := newLRU[string, int](8, nil)
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

// TestShardedConcurrentChurn hammers a sharded cache from many goroutines
// under -race: mixed insert/lookup/GetOrLoad/RemoveIf over a key space larger than
// the budget, asserting the global budget at the end.
func TestShardedConcurrentChurn(t *testing.T) {
	const budget = 64
	c := NewShardedHash[int, int](budget, 0, nil, nil) // default shard count
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 256
				switch i % 4 {
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
		}(g)
	}
	wg.Wait()
	if got := c.Stats().Cost; got > budget {
		t.Fatalf("cost %d exceeds budget %d after churn", got, budget)
	}
}
