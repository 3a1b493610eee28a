// Package offheap holds byte buffers outside the Go heap, so that a cache of
// large values costs its size in memory and not the garbage collector's
// headroom on top: a heap that holds B live bytes grows to about 2B before
// each collection (GOGC=100), while B bytes mapped here stay B.
//
// A Buf is one contiguous anonymous memory mapping, page-rounded, handed
// out by a Pool and returned to it for reuse. Its lifetime is a reference
// count with two kinds of reference:
//
//   - the owner's, taken by Pool.Get and dropped once by Release — a
//     cache's, from the load that filled the buffer to its removal;
//   - pins, taken by Pin and dropped by Unpin — one per reader using the
//     bytes, a response being written, say.
//
// The mapping goes back to its pool only when the last reference is gone,
// and a handle whose references are all gone is dead for good: Pin on it
// panics instead of reviving it (the pool hands the mapping out again under
// a fresh handle). Bytes never exposes more than the length asked of Get,
// so a buffer recycled from a longer use shows none of its old bytes.
//
// A pool keeps a bounded number of idle mappings for reuse (an exact
// page-size match) and unmaps the rest. Free unmaps every mapping a pool
// ever handed out, resident or idle — for an owner that has become
// unreachable, through runtime.AddCleanup.
//
// On unix builds without the purego tag the buffers are mmap'd (populated
// as they are mapped on Linux); elsewhere (and with purego) they are
// ordinary heap slices under the same pool and reference counting, and
// OffHeap is false.
package offheap

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// mappedTotal is every pool's mapped bytes, for Mapped.
var mappedTotal atomic.Int64

// Mapped returns the bytes currently mapped by all pools of the process.
func Mapped() int64 { return mappedTotal.Load() }

var pageSize = os.Getpagesize()

// roundPage rounds n up to whole pages.
func roundPage(n int) int { return (n + pageSize - 1) / pageSize * pageSize }

// Pool hands out Bufs and recycles their mappings. All methods are safe
// for concurrent use.
type Pool struct {
	maxIdle int64

	mu    sync.Mutex
	idle  [][]byte          // mappings ready for reuse, oldest first
	live  map[*Buf]struct{} // handles whose mapping is out; what Free unmaps beside idle
	freed bool

	mapped, held, pinned, idleBytes atomic.Int64
}

// Stats is a point-in-time view of a pool's mappings, in bytes of whole
// mappings (page-rounded).
type Stats struct {
	// Mapped is every mapping of the pool: held, pinned past its owner's
	// release, or idle.
	Mapped int64
	// Held is the mappings whose owner reference is not yet released.
	Held int64
	// Pinned is the mappings with at least one pin.
	Pinned int64
	// Idle is the mappings waiting in the pool for reuse.
	Idle int64
}

// NewPool returns a pool that keeps at most maxIdle bytes of idle mappings
// for reuse; <= 0 keeps none.
func NewPool(maxIdle int64) *Pool {
	return &Pool{maxIdle: maxIdle, live: map[*Buf]struct{}{}}
}

// Stats returns the pool's current byte counts. Each field is an atomic
// snapshot; a copy taken during concurrent use is consistent per field.
func (p *Pool) Stats() Stats {
	return Stats{Mapped: p.mapped.Load(), Held: p.held.Load(), Pinned: p.pinned.Load(), Idle: p.idleBytes.Load()}
}

// Get returns a buffer of length n holding the owner's reference. Its
// bytes are unspecified — zero when freshly mapped, a previous use's when
// recycled — and the caller fills all n of them.
func (p *Pool) Get(n int) (*Buf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("offheap: buffer of %d bytes", n)
	}
	size := roundPage(n)
	var mem []byte
	p.mu.Lock()
	// Newest first: the mapping most likely still in the CPU's caches.
	for i := len(p.idle) - 1; i >= 0; i-- {
		if len(p.idle[i]) == size {
			mem = p.idle[i]
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			p.idleBytes.Add(-int64(size))
			break
		}
	}
	p.mu.Unlock()
	if mem == nil {
		var err error
		if mem, err = mapMem(size); err != nil {
			return nil, fmt.Errorf("offheap: mapping %d bytes: %w", size, err)
		}
		p.mapped.Add(int64(size))
		mappedTotal.Add(int64(size))
	}
	b := &Buf{pool: p, mem: mem, n: n}
	b.state.Store(owned)
	p.mu.Lock()
	freed := p.freed
	if !freed {
		p.live[b] = struct{}{}
	}
	p.mu.Unlock()
	if freed {
		p.unmap([][]byte{mem})
		return nil, errors.New("offheap: Get from a freed pool")
	}
	p.held.Add(int64(size))
	return b, nil
}

// put takes back the mapping of a buffer whose last reference is gone.
func (p *Pool) put(b *Buf) {
	size := int64(len(b.mem))
	var drop [][]byte
	p.mu.Lock()
	if p.freed {
		// Free unmapped it already.
		p.mu.Unlock()
		return
	}
	delete(p.live, b)
	p.idle = append(p.idle, b.mem)
	p.idleBytes.Add(size)
	for p.idleBytes.Load() > p.maxIdle {
		drop = append(drop, p.idle[0])
		p.idleBytes.Add(-int64(len(p.idle[0])))
		p.idle = p.idle[1:]
	}
	p.mu.Unlock()
	p.unmap(drop)
}

// unmap returns mappings to the system.
func (p *Pool) unmap(mems [][]byte) {
	for _, mem := range mems {
		unmapMem(mem)
		p.mapped.Add(-int64(len(mem)))
		mappedTotal.Add(-int64(len(mem)))
	}
}

// Free unmaps every mapping of the pool — idle ones and those of buffers
// still referenced. It is for a pool whose buffers nobody can reach any
// more: the bytes of a buffer used after Free are gone, releasing one is a
// no-op, and Get fails.
func (p *Pool) Free() {
	p.mu.Lock()
	p.freed = true
	drop := p.idle
	p.idle = nil
	p.idleBytes.Store(0)
	for b := range p.live {
		drop = append(drop, b.mem)
	}
	clear(p.live)
	p.mu.Unlock()
	p.unmap(drop)
}

// A Buf's state packs its references: bit 0 is the owner's, the rest count
// pins. 0 is a released handle.
const (
	owned = 1
	pin   = 2
)

// Buf is one pooled buffer and its references (see the package
// documentation). The zero value is not usable; Pool.Get makes one.
type Buf struct {
	pool  *Pool
	mem   []byte // the whole mapping
	n     int
	state atomic.Int64
}

// Bytes returns the buffer's n bytes, capacity n: nothing past the length
// Get was asked for is reachable through it.
func (b *Buf) Bytes() []byte { return b.mem[:b.n:b.n] }

// Len returns the length Get was asked for.
func (b *Buf) Len() int { return b.n }

// Size returns the bytes the buffer's mapping takes: Len rounded up to
// whole pages.
func (b *Buf) Size() int { return len(b.mem) }

// Pin adds a reader's reference. It panics on a handle whose references are
// all gone: a pin must be taken while some other reference is known to be
// held (the cache takes it under the lock that keeps its own).
func (b *Buf) Pin() {
	s := b.update(func(s int64) bool { return s != 0 }, pin, "Pin of a released buffer")
	if s < pin {
		b.pool.pinned.Add(int64(len(b.mem)))
	}
}

// Unpin drops a reader's reference, returning the mapping to the pool when
// it was the last.
func (b *Buf) Unpin() {
	s := b.update(func(s int64) bool { return s >= pin }, -pin, "Unpin without a pin") - pin
	if s < pin {
		b.pool.pinned.Add(-int64(len(b.mem)))
	}
	if s == 0 {
		b.pool.put(b)
	}
}

// Release drops the owner's reference, returning the mapping to the pool
// when no pin is left.
func (b *Buf) Release() {
	s := b.update(func(s int64) bool { return s&owned != 0 }, -owned, "Release of a buffer not owned") - owned
	b.pool.held.Add(-int64(len(b.mem)))
	if s == 0 {
		b.pool.put(b)
	}
}

// update adds delta to the state if ok accepts it, panicking with what
// otherwise (leaving the state as it was), and returns the state before.
func (b *Buf) update(ok func(int64) bool, delta int64, what string) int64 {
	for {
		s := b.state.Load()
		if !ok(s) {
			panic("offheap: " + what)
		}
		if b.state.CompareAndSwap(s, s+delta) {
			return s
		}
	}
}
