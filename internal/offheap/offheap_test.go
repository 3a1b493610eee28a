package offheap

import (
	"bytes"
	"sync"
	"testing"
)

// wantStats fails the test unless the pool's counts are the given ones.
func wantStats(t *testing.T, p *Pool, want Stats) {
	t.Helper()
	if got := p.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func mustGet(t *testing.T, p *Pool, n int) *Buf {
	t.Helper()
	b, err := p.Get(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReferencesDecideTheMapping walks one buffer through its references:
// the mapping stays held while the owner's is, pinned while any pin is, and
// goes back to the pool only after the last of both; a dead handle can be
// neither pinned again nor released twice.
func TestReferencesDecideTheMapping(t *testing.T) {
	p := NewPool(1 << 20)
	n := pageSize + 100
	size := int64(2 * pageSize)
	b := mustGet(t, p, n)
	if got := b.Bytes(); len(got) != n || cap(got) != n || b.Len() != n || b.Size() != int(size) {
		t.Fatalf("Bytes: len %d cap %d, Len %d, Size %d, want %d in %d", len(got), cap(got), b.Len(), b.Size(), n, size)
	}
	wantStats(t, p, Stats{Mapped: size, Held: size})
	b.Pin()
	b.Pin()
	wantStats(t, p, Stats{Mapped: size, Held: size, Pinned: size})
	b.Release()
	wantStats(t, p, Stats{Mapped: size, Pinned: size})
	mustPanic(t, "a second Release", b.Release)
	b.Unpin()
	wantStats(t, p, Stats{Mapped: size, Pinned: size})
	b.Unpin()
	wantStats(t, p, Stats{Mapped: size, Idle: size})
	mustPanic(t, "Pin of a released buffer", b.Pin)
	mustPanic(t, "Unpin without a pin", b.Unpin)
	if _, err := p.Get(0); err == nil {
		t.Fatal("Get(0) succeeded")
	}
}

// TestRecycledBufferShowsOnlyItsLength: a mapping comes back for a request
// of the same page count under a fresh handle, exposing only the new length
// however much of it the previous use filled; another page count maps anew.
func TestRecycledBufferShowsOnlyItsLength(t *testing.T) {
	p := NewPool(1 << 20)
	before := Mapped()
	long := mustGet(t, p, 3*pageSize)
	copy(long.Bytes(), bytes.Repeat([]byte{0xaa}, 3*pageSize))
	long.Release()
	short := mustGet(t, p, 2*pageSize+1)
	if short == long {
		t.Fatal("a released handle was handed out again")
	}
	if got := Mapped() - before; got != int64(3*pageSize) {
		t.Fatalf("recycling mapped %d bytes, want the one %d-byte mapping", got, 3*pageSize)
	}
	if got := short.Bytes(); len(got) != 2*pageSize+1 || cap(got) != len(got) {
		t.Fatalf("recycled Bytes: len %d cap %d, want %d", len(got), cap(got), 2*pageSize+1)
	}
	other := mustGet(t, p, pageSize)
	if got := p.Stats().Mapped; got != int64(4*pageSize) {
		t.Fatalf("a one-page buffer beside the three-page one: %d mapped, want %d", got, 4*pageSize)
	}
	short.Release()
	other.Release()
	p.Free()
	if got := Mapped(); got != before {
		t.Fatalf("package counter %d after Free, want %d", got, before)
	}
}

// TestIdleIsBounded: the pool keeps at most its idle budget and unmaps the
// oldest idle mapping beyond it.
func TestIdleIsBounded(t *testing.T) {
	p := NewPool(int64(2 * pageSize))
	bufs := []*Buf{mustGet(t, p, pageSize), mustGet(t, p, pageSize), mustGet(t, p, 2*pageSize)}
	for _, b := range bufs[:2] {
		b.Release()
	}
	wantStats(t, p, Stats{Mapped: int64(4 * pageSize), Held: int64(2 * pageSize), Idle: int64(2 * pageSize)})
	bufs[2].Release() // two pages more: both one-page mappings go
	wantStats(t, p, Stats{Mapped: int64(2 * pageSize), Idle: int64(2 * pageSize)})
	if b := mustGet(t, p, pageSize); p.Stats().Idle != int64(2*pageSize) {
		t.Fatal("the two-page idle mapping served a one-page request")
	} else {
		b.Release()
	}
	if NewPool(0).maxIdle != 0 {
		t.Fatal("NewPool(0) keeps idle mappings")
	}
}

// TestFreeUnmapsEverything: Free returns idle mappings and those of buffers
// still referenced to the system; later releases are no-ops and Get fails.
func TestFreeUnmapsEverything(t *testing.T) {
	before := Mapped()
	p := NewPool(1 << 20)
	held, pinned, idle := mustGet(t, p, 100), mustGet(t, p, 5000), mustGet(t, p, 1)
	pinned.Pin()
	pinned.Release()
	idle.Release()
	if Mapped() == before {
		t.Fatal("nothing mapped")
	}
	p.Free()
	if got := Mapped(); got != before {
		t.Fatalf("package counter %d after Free, want %d", got, before)
	}
	held.Release()
	pinned.Unpin()
	if got := Mapped(); got != before {
		t.Fatalf("package counter %d after releases past Free, want %d", got, before)
	}
	if _, err := p.Get(10); err == nil || Mapped() != before {
		t.Fatalf("Get from a freed pool: %v, %d mapped", err, Mapped()-before)
	}
}

// TestConcurrentPinsAndRelease races readers pinning and unpinning one
// buffer against its owner's release; the mapping goes back exactly once,
// after the last of them.
func TestConcurrentPinsAndRelease(t *testing.T) {
	p := NewPool(1 << 20)
	for round := 0; round < 200; round++ {
		b := mustGet(t, p, 4096)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			b.Pin() // taken while the owner's reference is held, as the cache does
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					b.Pin()
					_ = b.Bytes()[0]
					b.Unpin()
				}
				b.Unpin()
			}()
		}
		b.Release()
		wg.Wait()
		if s := p.Stats(); s.Held != 0 || s.Pinned != 0 || s.Mapped != s.Idle {
			t.Fatalf("round %d: %+v, want everything idle", round, s)
		}
	}
}
