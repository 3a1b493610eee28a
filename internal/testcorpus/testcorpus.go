// Package testcorpus is the one memo behind the test corpora: the clips,
// containers and renders a test binary builds once and every test then
// shares read-only. A corpus supplies only its key, its build and its hash;
// the memo builds each entry on first use and fails any test that leaves an
// entry changed, at the end of that test.
package testcorpus

import (
	"hash/maphash"
	"sync"
	"testing"
)

// entry is one built value and the digest it was built with.
type entry struct {
	once   sync.Once
	built  bool // false after once only if the build failed
	val    any
	digest uint64
}

var (
	mu      sync.Mutex
	entries = map[any]*entry{}
	// seed keys the digests, which never leave the test binary.
	seed = maphash.MakeSeed()
)

// Of returns the entry of key, building it with build on its first use in
// the test binary, and fails t at its end if hash no longer writes what it
// wrote when the entry was built: a test that changes an entry clones what
// it changes first. Keys of different types name different entries, so a
// corpus keys its entries by a type of its own. build may take other
// entries through Of; a build that fails t fails every later Of of its key.
func Of[K comparable, V any](t testing.TB, key K, build func(testing.TB, K) V, hash func(V, *maphash.Hash)) V {
	t.Helper()
	mu.Lock()
	e := entries[key]
	if e == nil {
		e = new(entry)
		entries[key] = e
	}
	mu.Unlock()
	e.once.Do(func() {
		v := build(t, key)
		e.val, e.digest, e.built = v, digest(v, hash), true
	})
	if !e.built {
		t.Fatalf("the corpus entry %+v failed to build in an earlier test", key)
	}
	v := e.val.(V)
	t.Cleanup(func() {
		if digest(v, hash) != e.digest {
			t.Errorf("the corpus entry %+v was left changed; clone what you change", key)
		}
	})
	return v
}

func digest[V any](v V, hash func(V, *maphash.Hash)) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	hash(v, &h)
	return h.Sum64()
}
