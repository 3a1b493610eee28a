package store

import "errors"

// Typed sentinel errors of the archive layer. Every error returned by
// OpenArchiveBackend, ChunkArchive.Info and ChunkArchive.ReadChunkContext
// wraps one of these (or the underlying I/O error) with %w, so callers can
// classify failures with errors.Is: a missing chunk is a client error, a corrupt
// record is a data error, a closed archive is a lifecycle error.
var (
	// ErrChunkNotFound reports a chunk index outside the archive.
	ErrChunkNotFound = errors.New("chunk not found")
	// ErrCorruptRecord reports a structurally invalid archive: bad magic,
	// unsupported version, a zero-length or truncated file, a damaged chunk
	// header, or payload lengths that contradict the container.
	ErrCorruptRecord = errors.New("corrupt archive record")
	// ErrArchiveClosed reports a read on an archive after Close.
	ErrArchiveClosed = errors.New("archive closed")
	// ErrReadFailed reports that the underlying reader kept failing after
	// the fault policy's retries (and the mirror, when one is configured)
	// were exhausted. Unlike ErrCorruptRecord it describes the device, not
	// the data: the bytes may be fine, the path to them is not, which is
	// what the serving layer's circuit breaker keys on.
	ErrReadFailed = errors.New("archive read failed")
)
