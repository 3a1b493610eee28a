package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// refValue is a value with a reference count kept through the hooks: the
// load's reference (1 at birth) becomes the cache's, dropped by the removal
// hook; every caller handed the value holds a pin from the pin hook.
type refValue struct {
	refs atomic.Int64
	dead atomic.Bool // the count reached zero
}

// TestPinHookBalancesReferences churns a small cache from eight goroutines —
// loads that evict, values too costly to keep, RemoveIf purges, and callers
// whose context is already over or ends while they wait on a load — keeping
// a reference count on every value through the two hooks. No pin may ever
// meet a value whose count reached zero, no count may go below zero, and at
// the end every resident value holds exactly the cache's reference and every
// other value none.
func TestPinHookBalancesReferences(t *testing.T) {
	bothLayouts(t, func(t *testing.T, shards int) {
		const budget = 32
		var (
			mu     sync.Mutex
			all    []*refValue
			faults atomic.Int64
		)
		drop := func(v *refValue) {
			switch n := v.refs.Add(-1); {
			case n < 0:
				faults.Add(1)
			case n == 0:
				v.dead.Store(true)
			}
		}
		c := NewShardedHash[int, *refValue](budget, shards, nil, nil)
		c.OnPin(func(v *refValue) {
			if v.dead.Load() || v.refs.Add(1) <= 1 {
				faults.Add(1)
			}
		})
		c.OnRemove(func(_ int, v *refValue) { drop(v) })
		oversize := NewShardedHash[int, *refValue](0, shards, nil, nil)
		oversize.OnPin(c.onPin)
		oversize.OnRemove(c.onRemove)

		load := func(context.Context) (*refValue, error) {
			v := new(refValue)
			v.refs.Store(1)
			mu.Lock()
			all = append(all, v)
			mu.Unlock()
			return v, nil
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 1500; i++ {
					k := (g*17 + i) % 64
					ctx, cancel := context.WithCancel(context.Background())
					switch i % 5 {
					case 0:
						cancel() // gives up at once unless the value is resident or landed
					case 1:
						go cancel() // may give up while waiting on a flight
					}
					cc := c
					if i%7 == 0 {
						cc = oversize
					}
					if v, _, err := cc.GetOrLoad(ctx, k, load); err == nil {
						if v.dead.Load() {
							faults.Add(1)
						}
						drop(v)
					}
					cancel()
					if i%11 == 0 {
						c.RemoveIf(func(key int) bool { return key%8 == k%8 })
					}
				}
			}(g)
		}
		wg.Wait()
		if n := faults.Load(); n != 0 {
			t.Fatalf("%d reference faults", n)
		}
		// Loads detached from a caller that gave up may still be landing, and
		// a landing reports its removals after it leaves the shard lock.
		check := func() error {
			resident := map[*refValue]bool{}
			for i := range c.shards {
				s := &c.shards[i]
				s.mu.Lock()
				for _, el := range s.entries {
					resident[el.Value.(*entry[int, *refValue]).val] = true
				}
				s.mu.Unlock()
			}
			mu.Lock()
			defer mu.Unlock()
			if len(resident) == 0 || len(all) <= len(resident) {
				return fmt.Errorf("vacuous run: %d resident of %d loaded", len(resident), len(all))
			}
			for _, v := range all {
				want := int64(0)
				if resident[v] {
					want = 1
				}
				if got := v.refs.Load(); got != want {
					return fmt.Errorf("a value holds %d references at the end, want %d (resident: %v)", got, want, resident[v])
				}
			}
			return nil
		}
		deadline := time.Now().Add(5 * time.Second)
		for err := check(); err != nil; err = check() {
			if time.Now().After(deadline) {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
