//go:build unix && !purego

package offheap

import "syscall"

// OffHeap reports whether buffers live outside the Go heap: anonymous
// private mappings here.
const OffHeap = true

func mapMem(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|populate)
}

func unmapMem(mem []byte) {
	if err := syscall.Munmap(mem); err != nil {
		panic("offheap: munmap: " + err.Error())
	}
}
