// Package cache is a sharded, sized LRU cache with singleflight loading,
// the building block of the serve layer's decoded-chunk cache (both of its
// tiers: rendered chunks and parse records). It has no
// dependencies beyond the standard library.
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
// # Sharding
//
// A cache is split into a power-of-two number of shards, each with its own
// mutex, LRU list, and flight table, keyed by a seeded hash of the key.
// Concurrent lookups of different keys therefore contend only 1/N of the
// time. The cost budget is divided across the shards (so the global budget
// is always respected: the per-shard budgets sum to exactly the configured
// maximum), and eviction is per-shard LRU — an entry can only displace
// entries of its own shard, which approximates global LRU only while an
// entry is a small share of a shard: entries of 40 % of a shard's slice
// evict one another as soon as three land in one shard, however much room
// the other shards have.
// NewShardedHash selects the shard count (one shard is the strict global
// LRU, the serve layer's default for both tiers), with DefaultShards for a
// caller that asks for none.
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
// value is alive: under the shard lock of a hit, where the value is still
// resident, and under the shard lock where a load lands, for every caller
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
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cache is a cost-bounded sharded LRU map with request-coalescing loads.
// The zero value is not usable; construct with NewShardedHash. All methods
// are safe for concurrent use.
type Cache[K comparable, V any] struct {
	cost   func(V) int64
	hash   func(maphash.Seed, K) uint64
	seed   maphash.Seed
	mask   uint64
	shards []shard[K, V]
	// onRemove, when set, receives every value that leaves the cache.
	onRemove func(K, V)
	// onPin, when set, receives every value GetOrLoad hands to a caller,
	// under the shard lock.
	onPin func(V)
}

// shard is one independently locked slice of the cache: its own mutex,
// entry map, LRU list, flight table, cost budget, and counters. The pad
// keeps neighbouring shards' hot fields off one another's cache lines.
type shard[K comparable, V any] struct {
	maxCost int64

	mu      sync.Mutex
	entries map[K]*list.Element
	order   *list.List // front = most recently used
	flights map[K]*flight[V]

	// total and count mirror the resident cost and entry count. They are
	// only mutated under mu but read atomically, so Stats never takes a
	// shard lock — the serve path publishes cache gauges per request, and
	// that must not serialize against lookups.
	total atomic.Int64
	count atomic.Int64

	hits      atomic.Int64
	misses    atomic.Int64
	loads     atomic.Int64
	evictions atomic.Int64

	_ [32]byte
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
	// final. Both are guarded by the shard lock.
	waiters int
	landed  bool
}

// DefaultShards is the shard count NewShardedHash selects when asked for 0
// or fewer shards: max(8, GOMAXPROCS) rounded up to a power of two. Eight is
// enough to keep accidental hash collisions from serializing a small
// machine; larger machines get one shard per scheduler thread.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return ceilPow2(n)
}

// ceilPow2 rounds n up to the nearest power of two (minimum 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// NewShardedHash returns a cache of nshards power-of-two shards (values
// round up; nshards <= 0 selects DefaultShards, 1 is the strict global LRU
// under one mutex) bounded by maxCost in total, with each value charged by
// cost. The budget is split evenly across shards — the per-shard budgets
// sum to exactly maxCost, so the global bound holds under any key
// distribution — which also means a single value costing more than
// maxCost/nshards is not retained. A nil cost charges every entry 1, making
// maxCost an entry count. A maxCost <= 0 disables residency entirely —
// GetOrLoad still coalesces concurrent loads, but nothing is retained.
//
// hash picks the shard, so it matters only above one shard: a one-shard
// cache never calls it, and nil is the argument to pass there. A nil hash
// selects maphash.Comparable, which is correct for every comparable key but
// heap-escapes keys whose type contains pointers (strings, say) on each
// call; hot multi-shard paths with such keys should pass a hash built from
// the per-field maphash primitives instead (see KeyedHash). It need not be
// collision-free, just well distributed.
func NewShardedHash[K comparable, V any](maxCost int64, nshards int, cost func(V) int64, hash func(maphash.Seed, K) uint64) *Cache[K, V] {
	if cost == nil {
		cost = func(V) int64 { return 1 }
	}
	if hash == nil {
		hash = func(seed maphash.Seed, k K) uint64 { return maphash.Comparable(seed, k) }
	}
	if nshards <= 0 {
		nshards = DefaultShards()
	}
	nshards = ceilPow2(nshards)
	c := &Cache[K, V]{
		cost:   cost,
		hash:   hash,
		seed:   maphash.MakeSeed(),
		mask:   uint64(nshards - 1),
		shards: make([]shard[K, V], nshards),
	}
	base, rem := int64(0), int64(0)
	if maxCost > 0 {
		base = maxCost / int64(nshards)
		rem = maxCost % int64(nshards)
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.maxCost = base
		if int64(i) < rem {
			s.maxCost++
		}
		s.entries = map[K]*list.Element{}
		s.order = list.New()
		s.flights = map[K]*flight[V]{}
	}
	return c
}

// shard returns the shard owning key.
func (c *Cache[K, V]) shard(key K) *shard[K, V] {
	if c.mask == 0 {
		return &c.shards[0]
	}
	return &c.shards[c.hash(c.seed, key)&c.mask]
}

// OnRemove registers the removal hook (see the package documentation): fn
// is called outside every cache lock. Set it once, before the cache is used.
func (c *Cache[K, V]) OnRemove(fn func(K, V)) { c.onRemove = fn }

// OnPin registers the pin hook (see the package documentation): fn is called
// under a shard lock, so it must be fast and must not touch the cache. Set
// it once, before the cache is used.
func (c *Cache[K, V]) OnPin(fn func(V)) { c.onPin = fn }

// pinLocked reports n callers of v to the pin hook; the shard lock is held.
func (c *Cache[K, V]) pinLocked(v V, n int) {
	if c.onPin == nil {
		return
	}
	for range n {
		c.onPin(v)
	}
}

// removed reports entries that just left a shard to the removal hook, after
// the caller has released the shard lock.
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
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	if !ok {
		_, ok = s.flights[key]
	}
	return ok
}

// addLocked inserts a freshly loaded value, first evicting LRU entries of the
// shard until it fits the budget, and returns the entries that left. A value
// whose own cost exceeds the shard budget is not retained (it would only
// evict everything else and then miss anyway) and is itself returned.
// key is never resident here: a flight only starts on a miss and is the
// sole writer of its key until it lands.
func (s *shard[K, V]) addLocked(key K, val V, cost int64) (gone []*entry[K, V]) {
	e := &entry[K, V]{key: key, val: val, cost: cost}
	if cost > s.maxCost {
		return append(gone, e)
	}
	gone = s.makeRoomLocked(cost, gone)
	s.entries[key] = s.order.PushFront(e)
	s.total.Add(cost)
	s.count.Add(1)
	return gone
}

// makeRoomLocked evicts LRU entries, appending them to gone, until extra more
// cost fits the shard's budget. Room is made before it is taken, so the
// lock-free Stats never read a cost above the budget.
func (s *shard[K, V]) makeRoomLocked(extra int64, gone []*entry[K, V]) []*entry[K, V] {
	for s.total.Load()+extra > s.maxCost {
		back := s.order.Back()
		if back == nil {
			break
		}
		gone = append(gone, s.removeLocked(back))
		s.evictions.Add(1)
	}
	return gone
}

func (s *shard[K, V]) removeLocked(el *list.Element) *entry[K, V] {
	e := el.Value.(*entry[K, V])
	s.order.Remove(el)
	delete(s.entries, e.key)
	s.total.Add(-e.cost)
	s.count.Add(-1)
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
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		s.hits.Add(1)
		v := el.Value.(*entry[K, V]).val
		c.pinLocked(v, 1)
		s.mu.Unlock()
		return v, true, nil
	}
	s.misses.Add(1)
	if f, ok := s.flights[key]; ok {
		// Someone is already loading this key; wait on their flight.
		f.waiters++
		s.mu.Unlock()
		v, err := wait(ctx, s, f)
		return v, false, err
	}
	f := &flight[V]{done: make(chan struct{}), waiters: 1}
	s.flights[key] = f
	s.mu.Unlock()

	s.loads.Add(1)
	go func() {
		val, err := runLoad(context.WithoutCancel(ctx), load)
		var gone []*entry[K, V]
		s.mu.Lock()
		delete(s.flights, key)
		f.val, f.err, f.landed = val, err, true
		if err == nil {
			// Pinned before the value is added, so even one too costly to
			// keep — reported removed below — reaches its waiters alive.
			c.pinLocked(val, f.waiters)
			gone = s.addLocked(key, val, c.cost(val))
		}
		s.mu.Unlock()
		// Before the waiters wake: once GetOrLoad returns, the evictions its
		// load caused have been reported.
		c.removed(gone)
		close(f.done)
	}()
	v, err := wait(ctx, s, f)
	return v, false, err
}

// Replace puts val in the place of the value resident under key — for an
// owner that rebuilt the value after its lookup, the record tier's packed
// records say — charging val's cost, marking it most recently used and
// evicting LRU entries until the shard fits its budget. The value replaced
// goes to the removal hook, and so does val when it cannot stay: when it
// alone outgrows the shard budget, or when key is no longer resident
// (evicted or purged since the lookup: nothing a RemoveIf dropped comes back
// this way).
func (c *Cache[K, V]) Replace(key K, val V) {
	s := c.shard(key)
	rejected := &entry[K, V]{key: key, val: val}
	var gone []*entry[K, V]
	s.mu.Lock()
	if el, ok := s.entries[key]; !ok {
		gone = append(gone, rejected)
	} else if cost := c.cost(val); cost > s.maxCost {
		gone = append(gone, s.removeLocked(el), rejected)
	} else {
		// At the front the entry is the last candidate for eviction, and
		// alone in the shard it fits: making room never reaches it.
		e := el.Value.(*entry[K, V])
		s.order.MoveToFront(el)
		gone = s.makeRoomLocked(cost-e.cost, gone)
		gone = append(gone, &entry[K, V]{key: key, val: e.val})
		s.total.Add(cost - e.cost)
		e.val, e.cost = val, cost
	}
	s.mu.Unlock()
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
func wait[K comparable, V any](ctx context.Context, s *shard[K, V], f *flight[V]) (V, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
	}
	s.mu.Lock()
	landed := f.landed
	if !landed {
		f.waiters--
	}
	s.mu.Unlock()
	if !landed {
		var zero V
		return zero, ctx.Err()
	}
	<-f.done // closed right after the landing's removal reports
	return f.val, f.err
}

// Stats is a point-in-time copy of the cache's counters, aggregated across
// shards.
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

// Stats returns the current counter values aggregated across all shards.
// Reads are lock-free: each field is an atomic snapshot, so a copy taken
// during concurrent mutation is consistent per field, not across fields.
func (c *Cache[K, V]) Stats() Stats {
	var agg Stats
	for i := range c.shards {
		s := &c.shards[i]
		agg.Hits += s.hits.Load()
		agg.Misses += s.misses.Load()
		agg.Loads += s.loads.Load()
		agg.Evictions += s.evictions.Load()
		agg.Len += int(s.count.Load())
		agg.Cost += s.total.Load()
	}
	return agg
}
