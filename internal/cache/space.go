package cache

import (
	"context"
	"hash/maphash"
)

// Keyed is a namespaced cache key: the same inner key in two spaces is two
// distinct entries. It is how one cost-bounded cache is shared by many
// tenants (the serving catalog's archives) while staying a single LRU — the
// budget and the recency order are global, so a hot tenant naturally
// displaces a cold one instead of each tenant hoarding a fixed slice.
type Keyed[K comparable] struct {
	// Space names the partition (a catalog archive, say). Spaces are free:
	// an unused space occupies nothing.
	Space string
	// Key is the inner key within the space.
	Key K
}

// KeyedHash returns nil: the cache has no shards to route keys to, and
// NewShardedHash ignores its hash. It stays only because the benchmark
// module (bench/) names it.
func KeyedHash[K comparable]() func(maphash.Seed, Keyed[K]) uint64 { return nil }

// Space is a view of a shared cache scoped to one namespace. All views over
// the same Cache share its budget, LRU order, and singleflight table;
// operations through a view touch only that namespace's entries. The view
// is stateless and safe for concurrent use.
type Space[K comparable, V any] struct {
	c    *Cache[Keyed[K], V]
	name string
}

// In returns the view of c scoped to the named space.
func In[K comparable, V any](c *Cache[Keyed[K], V], name string) Space[K, V] {
	return Space[K, V]{c: c, name: name}
}

// Contains reports whether key is resident or loading within the space,
// without touching the recency order or the hit/miss counters.
func (s Space[K, V]) Contains(key K) bool {
	return s.c.Contains(Keyed[K]{Space: s.name, Key: key})
}

// GetOrLoad is Cache.GetOrLoad scoped to the space: singleflight is per
// (space, key), so the same chunk index loading in two spaces runs two
// loads, while a stampede on one (space, key) still runs exactly one. The
// middle return reports whether the value was resident at lookup.
func (s Space[K, V]) GetOrLoad(ctx context.Context, key K, load func(context.Context) (V, error)) (V, bool, error) {
	return s.c.GetOrLoad(ctx, Keyed[K]{Space: s.name, Key: key}, load)
}

// RemoveIf drops every resident entry whose key matches pred, returning the
// number removed — how a whole namespace is purged; each one is reported to
// the removal hook. The scan holds the cache lock: pred must be fast and
// must not touch the cache (the hook runs after the lock is released).
// In-flight loads are not interrupted; their results land after the scan
// and age out through the LRU, so callers that must keep stale results
// unreachable retire the space name itself (a fresh generation suffix)
// rather than rely on RemoveIf racing the loads.
func (c *Cache[K, V]) RemoveIf(pred func(K) bool) int {
	var gone []*entry[K, V]
	c.mu.Lock()
	for key, el := range c.entries {
		if pred(key) {
			gone = append(gone, c.removeLocked(el))
		}
	}
	c.mu.Unlock()
	c.removed(gone)
	return len(gone)
}
