//go:build !purego

package offheap

import "syscall"

// populate has the kernel fault a new mapping's pages in while it maps them:
// the caller is about to write every page, and one call does that for about
// half the cost of a fault per page (≈ 165 µs instead of ≈ 340–400 µs to
// map, fill and unmap a 507 KB rendering on 2 vCPUs).
const populate = syscall.MAP_POPULATE
