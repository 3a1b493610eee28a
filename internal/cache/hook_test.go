package cache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// bothLayouts runs a test on the serving layout (default shard count) and on
// the single-shard strict LRU.
func bothLayouts(t *testing.T, run func(t *testing.T, shards int)) {
	t.Run("sharded", func(t *testing.T) { run(t, 0) })
	t.Run("one shard", func(t *testing.T) { run(t, 1) })
}

// TestRemovalHookExactlyOnce churns a small cache from eight goroutines —
// loads that evict, RemoveIf purges, lookups, and values too costly to be
// retained — with every loaded value carrying a unique serial, and requires
// that each value is either still resident and was never reported, or is
// gone and was reported exactly once.
func TestRemovalHookExactlyOnce(t *testing.T) {
	bothLayouts(t, func(t *testing.T, shards int) {
		const budget = 64
		// A value's cost is 1, except every 97th serial: too big for any shard.
		c := NewShardedHash[int, int64](budget, shards, func(v int64) int64 {
			if v%97 == 0 {
				return budget + 1
			}
			return 1
		}, nil)
		var mu sync.Mutex
		reported := map[int64]int{}
		c.OnRemove(func(_ int, v int64) {
			mu.Lock()
			reported[v]++
			mu.Unlock()
		})

		var serial atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					k := (g*31 + i) % 256
					switch i % 4 {
					case 0, 2:
						c.GetOrLoad(context.Background(), k, func(context.Context) (int64, error) { return serial.Add(1), nil })
					case 1:
						lookup(c, k)
					default:
						c.RemoveIf(func(key int) bool { return key%16 == k%16 })
					}
				}
			}(g)
		}
		wg.Wait()

		resident := map[int64]bool{}
		for i := range c.shards {
			for _, el := range c.shards[i].entries {
				resident[el.Value.(*entry[int, int64]).val] = true
			}
		}
		if len(resident) == 0 || len(reported) == 0 {
			t.Fatalf("vacuous run: %d resident, %d reported", len(resident), len(reported))
		}
		for v := int64(1); v <= serial.Load(); v++ {
			switch n := reported[v]; {
			case resident[v] && n != 0:
				t.Fatalf("value %d is resident but was reported %d times", v, n)
			case !resident[v] && n != 1:
				t.Fatalf("value %d left the cache and was reported %d times, want 1", v, n)
			}
		}
		if st := c.Stats(); int64(len(reported)) < st.Evictions {
			t.Fatalf("%d values reported, fewer than the %d evictions", len(reported), st.Evictions)
		}
	})
}

// TestContainsSeesFlights: Contains answers true from the moment a load
// takes off, stays true when it lands, and is false again after a failed
// load — the prefetcher's "already warm or warming?" probe.
func TestContainsSeesFlights(t *testing.T) {
	bothLayouts(t, func(t *testing.T, shards int) {
		c := NewShardedHash[int, int](8, shards, nil, nil)
		for _, fail := range []bool{false, true} {
			key := 7
			if fail {
				key = 8
			}
			started, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				c.GetOrLoad(context.Background(), key, func(context.Context) (int, error) {
					close(started)
					<-gate
					if fail {
						return 0, errAbsent
					}
					return 1, nil
				})
			}()
			<-started
			if !c.Contains(key) {
				t.Fatalf("Contains(%d) false during its load", key)
			}
			if c.Contains(key + 100) {
				t.Fatal("Contains true for a key nobody asked for")
			}
			close(gate)
			<-done
			if got := c.Contains(key); got == fail {
				t.Fatalf("Contains(%d) = %v after the load (failed: %v)", key, got, fail)
			}
		}
	})
}
