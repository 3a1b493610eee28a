package cache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSpacesShareOneBudget: two namespaces over one cache share a single
// cost budget and a single recency order — filling one space evicts the
// globally least-recent entries regardless of which space owns them.
func TestSpacesShareOneBudget(t *testing.T) {
	c := New[Keyed[int], string](4, nil) // cost 1 each: 4 entries total
	a, b := In[int, string](c, "a"), In[int, string](c, "b")

	put(a, 1, "a1")
	put(a, 2, "a2")
	put(b, 1, "b1")
	put(b, 2, "b2")
	if n := c.Stats().Len; n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	// Touch a1 so it is most recent; the next insert must evict a2 — the
	// globally least-recent — not anything of b's.
	if v, ok := lookup(a, 1); !ok || v != "a1" {
		t.Fatalf("a[1] = %q, %v", v, ok)
	}
	put(b, 3, "b3")
	if a.Contains(2) {
		t.Fatal("a2 should have been evicted as globally least-recent")
	}
	for key, want := range map[int]string{1: "b1", 2: "b2", 3: "b3"} {
		if v, ok := lookup(b, key); !ok || v != want {
			t.Fatalf("b[%d] = %q, %v; want %q resident", key, v, ok, want)
		}
	}
	if v, ok := lookup(a, 1); !ok || v != "a1" {
		t.Fatalf("a1 lost: %q, %v", v, ok)
	}
}

// TestSpaceKeysAreDistinct: the same inner key in two spaces is two
// entries; removing one leaves the other.
func TestSpaceKeysAreDistinct(t *testing.T) {
	c := New[Keyed[int], string](10, nil)
	a, b := In[int, string](c, "a"), In[int, string](c, "b")
	put(a, 7, "from-a")
	put(b, 7, "from-b")
	if v, _ := lookup(a, 7); v != "from-a" {
		t.Fatalf("a[7] = %q", v)
	}
	if v, _ := lookup(b, 7); v != "from-b" {
		t.Fatalf("b[7] = %q", v)
	}
	if n := c.RemoveIf(func(k Keyed[int]) bool { return k == Keyed[int]{Space: "a", Key: 7} }); n != 1 {
		t.Fatalf("removing a[7] dropped %d entries, want 1", n)
	}
	if a.Contains(7) {
		t.Fatal("a[7] survived removal")
	}
	if v, ok := lookup(b, 7); !ok || v != "from-b" {
		t.Fatal("removing a[7] disturbed b[7]")
	}
}

// TestConcurrentGetOrLoadAcrossSpaces is the namespaced-key acceptance
// test, run under -race: many goroutines hammer the same inner keys through
// two spaces sharing one budget. Singleflight must stay per-(space, key) —
// each (space, key) loads exactly once while everything is resident-or-in-
// flight — and the shared budget must hold.
func TestConcurrentGetOrLoadAcrossSpaces(t *testing.T) {
	const keys = 8
	// Budget holds all entries of both spaces, so every key loads exactly
	// once; eviction pressure is exercised separately below.
	c := New[Keyed[int], string](2*keys, nil)
	spaces := []Space[int, string]{In[int, string](c, "a"), In[int, string](c, "b")}

	var loadsPer [2 * keys]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				si := (g + i) % 2
				key := (g * 7 % keys) ^ (i%keys)%keys
				s := spaces[si]
				want := fmt.Sprintf("%s-%d", s.name, key)
				got, _, err := s.GetOrLoad(context.Background(), key, func(context.Context) (string, error) {
					loadsPer[si*keys+key].Add(1)
					return want, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("space %s key %d: got %q, want %q — value crossed namespaces", s.name, key, got, want)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for i := range loadsPer {
		if n := loadsPer[i].Load(); n > 1 {
			t.Errorf("(space %d, key %d) loaded %d times, want at most 1 (singleflight per (space,key))", i/keys, i%keys, n)
		}
	}
	if got := c.Stats().Cost; got > 2*keys {
		t.Fatalf("cost %d exceeds shared budget %d", got, 2*keys)
	}
}

// TestConcurrentSpacesUnderEviction: with a budget far below the working
// set, concurrent loads through two spaces must never over-fill the shared
// cache and every read must still return its own space's value.
func TestConcurrentSpacesUnderEviction(t *testing.T) {
	const budget = 4
	c := New[Keyed[int], string](budget, nil)
	spaces := []Space[int, string]{In[int, string](c, "a"), In[int, string](c, "b")}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s := spaces[(g+i)%2]
				key := i % 16
				want := fmt.Sprintf("%s-%d", s.name, key)
				got, _, err := s.GetOrLoad(context.Background(), key, func(context.Context) (string, error) {
					return want, nil
				})
				if err != nil || got != want {
					t.Errorf("space %s key %d: got %q, %v; want %q", s.name, key, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Stats().Cost; got > budget {
		t.Fatalf("cost %d exceeds budget %d", got, budget)
	}
}

// TestSpacePurge: a RemoveIf over one namespace — how the catalog purges a
// removed archive — empties exactly that namespace and reports the count;
// the shared budget is released for the survivors.
func TestSpacePurge(t *testing.T) {
	c := New[Keyed[int], string](8, nil)
	a, b := In[int, string](c, "a"), In[int, string](c, "b")
	for i := 0; i < 4; i++ {
		put(a, i, "a")
		put(b, i, "b")
	}
	purgeA := func() int { return c.RemoveIf(func(k Keyed[int]) bool { return k.Space == "a" }) }
	if n := purgeA(); n != 4 {
		t.Fatalf("purge removed %d, want 4", n)
	}
	if s := c.Stats(); s.Len != 4 || s.Cost != 4 {
		t.Fatalf("after purge: len %d cost %d, want 4/4", s.Len, s.Cost)
	}
	for i := 0; i < 4; i++ {
		if a.Contains(i) {
			t.Fatalf("a[%d] survived the purge", i)
		}
		if !b.Contains(i) {
			t.Fatalf("b[%d] lost to a's purge", i)
		}
	}
	if n := purgeA(); n != 0 {
		t.Fatalf("second purge removed %d, want 0", n)
	}
}
