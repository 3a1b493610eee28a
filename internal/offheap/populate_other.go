//go:build unix && !linux && !purego

package offheap

// populate is 0 where mmap has no MAP_POPULATE: pages fault in as written.
const populate = 0
