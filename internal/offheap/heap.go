//go:build !unix || purego

package offheap

// OffHeap reports whether buffers live outside the Go heap: not on this
// build, where they are heap slices the collector reclaims once unmapped.
const OffHeap = false

func mapMem(size int) ([]byte, error) { return make([]byte, size), nil }

func unmapMem([]byte) {}
