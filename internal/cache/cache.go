// Package cache is a sized LRU cache with singleflight loading, the
// building block of the serve layer's decoded-chunk cache (both of its
// tiers: rendered chunks and parse records). It has no dependencies beyond
// the standard library.
//
// The cache is keyed, generic, and bounded by total cost rather than entry
// count: each value is charged a caller-defined cost (bytes of a decoded
// chunk, say) and the least-recently-used entries are evicted until the
// total fits the budget. GetOrLoad coalesces concurrent loads of the same
// key — under a stampede of N readers for a cold key, the loader runs
// exactly once and all N share its result — which is what keeps a hot chunk
// from being decoded N times when N clients request it at once.
//
// A value may also be rebuilt after it was loaded — the serve layer's parse
// records are packed anew by the decode that follows the lookup — and Replace
// swaps it in under the same key, taking its cost. Either way room is made
// before it is taken: the resident cost never exceeds the budget, not even
// transiently in the lock-free Stats.
//
// The cache is one strict LRU under one mutex: the recency order and the
// budget are global, so an entry can displace any other, and nothing is
// evicted while the budget has room.
//
// # Removal hook
//
// OnRemove registers a function the cache calls with the key and value of
// every value that leaves it: LRU evictions, RemoveIf purges, and a freshly
// loaded value too costly to be retained at all. A resident value has never
// been passed to the hook and one that left was passed exactly once, so an
// owner can keep per-value state on the value itself (the serve layer's
// "prefetched, not yet served" bit) and settle it when the value goes,
// instead of mirroring the cache's tables in one of its own. For the same
// reason Contains is true for a key whose load is still in flight: "is
// anyone already producing this?" is the flight table's to answer.
//
// # Pin hook
//
// OnPin registers a function the cache calls once for every caller
// GetOrLoad hands a value to, inside the critical section that knows the
// value is alive: under the cache lock of a hit, where the value is still
// resident, and under the cache lock where a load lands, for every caller
// waiting on it. Beside OnRemove this is a reference count an owner can keep
// on the value — the serve layer's off-heap renderings: the cache holds one
// reference from the load until the removal hook, and every caller one
// from the pin until it is done with the value. A resident value is pinned
// before its removal can be reported, so a pin never meets a value whose
// cache reference is gone; a caller whose context ends after its load has
// landed is served the value like a hit, since its pin was taken.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Cache is a cost-bounded LRU map with request-coalescing loads. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	cost    func(V) int64
	maxCost int64
	// onRemove, when set, receives every value that leaves the cache.
	onRemove func(K, V)
	// onPin, when set, receives every value GetOrLoad hands to a caller,
	// under the cache lock.
	onPin func(V)

	mu      sync.Mutex
	entries map[K]*list.Element
	order   *list.List // front = most recently used
	flights map[K]*flight[V]

	// total and count mirror the resident cost and entry count. They are
	// only mutated under mu but read atomically, so Stats never takes the
	// lock — the serve path publishes cache gauges per request, and that
	// must not serialize against lookups.
	total atomic.Int64
	count atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	loads     atomic.Int64
	evictions atomic.Int64
}

// entry is one resident cache cell.
type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one in-progress load shared by every concurrent caller of the
// same key.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	// waiters counts the callers the landing pins the value for: the one
	// that started the load and every one that joined it, less those that
	// gave up before it landed. landed is set when the load's result is
	// final. Both are guarded by the cache lock.
	waiters int
	landed  bool
}

// New returns a cache bounded by maxCost in total, with each value charged
// by cost; a single value costing more than maxCost is not retained. A nil
// cost charges every entry 1, making maxCost an entry count. A maxCost <= 0
// disables residency entirely — GetOrLoad still coalesces concurrent loads,
// but nothing is retained.
func New[K comparable, V any](maxCost int64, cost func(V) int64) *Cache[K, V] {
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	return &Cache[K, V]{
		cost:    cost,
		maxCost: max(maxCost, 0),
		entries: map[K]*list.Element{},
		order:   list.New(),
		flights: map[K]*flight[V]{},
	}
}

// NewShardedHash is New: the cache has no shards, so the shard count and
// the hash are ignored. It stays only because the benchmark module (bench/)
// names it.
func NewShardedHash[K comparable, V any](maxCost int64, _ int, cost func(V) int64, _ func(maphash.Seed, K) uint64) *Cache[K, V] {
	return New[K, V](maxCost, cost)
}

// DefaultShards returns 1, the cache's only layout. It stays only because
// the benchmark module (bench/) names it.
func DefaultShards() int { return 1 }

// OnRemove registers the removal hook (see the package documentation): fn
// is called outside the cache lock. Set it once, before the cache is used.
func (c *Cache[K, V]) OnRemove(fn func(K, V)) { c.onRemove = fn }

// OnPin registers the pin hook (see the package documentation): fn is called
// under the cache lock, so it must be fast and must not touch the cache. Set
// it once, before the cache is used.
func (c *Cache[K, V]) OnPin(fn func(V)) { c.onPin = fn }

// pinLocked reports n callers of v to the pin hook; the cache lock is held.
func (c *Cache[K, V]) pinLocked(v V, n int) {
	if c.onPin == nil {
		return
	}
	for range n {
		c.onPin(v)
	}
}

// removed reports entries that just left the cache to the removal hook,
// after the caller has released the cache lock.
func (c *Cache[K, V]) removed(gone []*entry[K, V]) {
	if c.onRemove == nil {
		return
	}
	for _, e := range gone {
		c.onRemove(e.key, e.val)
	}
}

// Contains reports whether key is resident or has a load in flight, without
// touching the recency order or the hit/miss counters — the prefetcher's
// "already warm or warming?" probe.
func (c *Cache[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	if !ok {
		_, ok = c.flights[key]
	}
	return ok
}

// addLocked inserts a freshly loaded value, first evicting LRU entries until
// it fits the budget, and returns the entries that left. A value whose own
// cost exceeds the budget is not retained (it would only
// evict everything else and then miss anyway) and is itself returned.
// key is never resident here: a flight only starts on a miss and is the
// sole writer of its key until it lands.
func (c *Cache[K, V]) addLocked(key K, val V, cost int64) (gone []*entry[K, V]) {
	e := &entry[K, V]{key: key, val: val, cost: cost}
	if cost > c.maxCost {
		return append(gone, e)
	}
	gone = c.makeRoomLocked(cost, gone)
	c.entries[key] = c.order.PushFront(e)
	c.total.Add(cost)
	c.count.Add(1)
	return gone
}

// makeRoomLocked evicts LRU entries, appending them to gone, until extra more
// cost fits the budget. Room is made before it is taken, so the
// lock-free Stats never read a cost above the budget.
func (c *Cache[K, V]) makeRoomLocked(extra int64, gone []*entry[K, V]) []*entry[K, V] {
	for c.total.Load()+extra > c.maxCost {
		back := c.order.Back()
		if back == nil {
			break
		}
		gone = append(gone, c.removeLocked(back))
		c.evictions.Add(1)
	}
	return gone
}

func (c *Cache[K, V]) removeLocked(el *list.Element) *entry[K, V] {
	e := el.Value.(*entry[K, V])
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.total.Add(-e.cost)
	c.count.Add(-1)
	return e
}

// GetOrLoad returns the cached value for key, or runs load to produce it,
// reporting whether the value was resident at lookup (the hit/miss verdict
// of this one request, so callers never need a second probe). Concurrent
// calls for the same key share a single load (singleflight): exactly one
// caller's load function runs, the rest block until it finishes and receive
// the same value or error. Successful loads are added to the cache; failed
// loads are not, so a later call retries. A load that panics is a failed load
// whose error wraps ErrLoadPanicked: it runs on a goroutine of the cache's
// own, where nothing of the caller's could recover it.
//
// The load function receives a context detached from ctx's cancellation:
// the result is shared by every waiter (and the cache), so one caller
// hanging up must not poison it for the others. A caller whose own ctx
// ends while waiting returns ctx.Err() immediately, unless the load has
// already landed (its value was pinned for the caller, which is then served
// it); the load keeps running and its result is still cached for future
// readers. Every value returned with a nil error was passed to the pin hook
// for this call.
func (c *Cache[K, V]) GetOrLoad(ctx context.Context, key K, load func(context.Context) (V, error)) (V, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits.Add(1)
		v := el.Value.(*entry[K, V]).val
		c.pinLocked(v, 1)
		c.mu.Unlock()
		return v, true, nil
	}
	c.misses.Add(1)
	if f, ok := c.flights[key]; ok {
		// Someone is already loading this key; wait on their flight.
		f.waiters++
		c.mu.Unlock()
		v, err := c.wait(ctx, f)
		return v, false, err
	}
	f := &flight[V]{done: make(chan struct{}), waiters: 1}
	c.flights[key] = f
	c.mu.Unlock()

	c.loads.Add(1)
	go func() {
		val, err := runLoad(context.WithoutCancel(ctx), load)
		var gone []*entry[K, V]
		c.mu.Lock()
		delete(c.flights, key)
		f.val, f.err, f.landed = val, err, true
		if err == nil {
			// Pinned before the value is added, so even one too costly to
			// keep — reported removed below — reaches its waiters alive.
			c.pinLocked(val, f.waiters)
			gone = c.addLocked(key, val, c.cost(val))
		}
		c.mu.Unlock()
		// Before the waiters wake: once GetOrLoad returns, the evictions its
		// load caused have been reported.
		c.removed(gone)
		close(f.done)
	}()
	v, err := c.wait(ctx, f)
	return v, false, err
}

// Replace puts val in the place of the value resident under key — for an
// owner that rebuilt the value after its lookup, the record tier's packed
// records say — charging val's cost, marking it most recently used and
// evicting LRU entries until the cache fits its budget. The value replaced
// goes to the removal hook, and so does val when it cannot stay: when it
// alone outgrows the budget, or when key is no longer resident
// (evicted or purged since the lookup: nothing a RemoveIf dropped comes back
// this way).
func (c *Cache[K, V]) Replace(key K, val V) {
	rejected := &entry[K, V]{key: key, val: val}
	var gone []*entry[K, V]
	c.mu.Lock()
	if el, ok := c.entries[key]; !ok {
		gone = append(gone, rejected)
	} else if cost := c.cost(val); cost > c.maxCost {
		gone = append(gone, c.removeLocked(el), rejected)
	} else {
		// At the front the entry is the last candidate for eviction, and
		// alone in the cache it fits: making room never reaches it.
		e := el.Value.(*entry[K, V])
		c.order.MoveToFront(el)
		gone = c.makeRoomLocked(cost-e.cost, gone)
		gone = append(gone, &entry[K, V]{key: key, val: e.val})
		c.total.Add(cost - e.cost)
		e.val, e.cost = val, cost
	}
	c.mu.Unlock()
	c.removed(gone)
}

// ErrLoadPanicked is wrapped, with the panic value, by the error GetOrLoad
// returns to every caller sharing a load that panicked.
var ErrLoadPanicked = errors.New("cache: load panicked")

// runLoad runs load, turning a panic into an error (beside the zero value:
// a load that panicked never set its results).
func runLoad[V any](ctx context.Context, load func(context.Context) (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrLoadPanicked, r)
		}
	}()
	return load(ctx)
}

// wait blocks on a flight until it completes or the caller's own context
// ends, whichever comes first. A caller that gives up before the load lands
// withdraws from its waiters; one whose context ends after the landing was
// pinned and takes the value.
func (c *Cache[K, V]) wait(ctx context.Context, f *flight[V]) (V, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
	}
	c.mu.Lock()
	landed := f.landed
	if !landed {
		f.waiters--
	}
	c.mu.Unlock()
	if !landed {
		var zero V
		return zero, ctx.Err()
	}
	<-f.done // closed right after the landing's removal reports
	return f.val, f.err
}

// Stats is a point-in-time copy of the cache's counters.
type Stats struct {
	// Hits and Misses count GetOrLoad lookups by residency at lookup
	// time (a coalesced waiter counts as a miss — the value was not
	// resident — but triggers no extra load).
	Hits, Misses int64
	// Loads counts loader executions started by GetOrLoad; under a stampede
	// it stays at one per cold key, which is the singleflight guarantee.
	Loads int64
	// Evictions counts entries dropped to fit the cost budget.
	Evictions int64
	// Len and Cost describe current residency.
	Len  int
	Cost int64
}

// HitRate returns Hits over total lookups, 0 when there were none.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the current counter values. Reads are lock-free: each field
// is an atomic snapshot, so a copy taken during concurrent mutation is
// consistent per field, not across fields.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Loads:     c.loads.Load(),
		Evictions: c.evictions.Load(),
		Len:       int(c.count.Load()),
		Cost:      c.total.Load(),
	}
}
