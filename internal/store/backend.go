package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Backend is the storage seam of the archive layer: one stored container
// addressed by positionless reads and writes, plus its lifecycle.
// It is the paper's substrate/controller boundary (§5) in interface form —
// everything above it (archive indexing, the fault-tolerance ladder, the
// scrubber, the serving catalog) is the memory controller, and a Backend is
// whatever dense, possibly error-prone medium holds the bytes: a file, a
// memory region, a remote block device, or any of those behind a
// fault-injecting decorator (internal/faultio).
//
// ReadAt and WriteAt follow the io.ReaderAt/io.WriterAt contracts and must
// be safe for unbounded concurrent use; Close releases the backing resource
// and is idempotent. Read-only media report writes with an error wrapping
// ErrReadOnly — the scrubber treats such a region as damaged-but-unrepairable
// rather than failing the pass.
type Backend interface {
	io.ReaderAt
	io.WriterAt
	// Close releases the backing resource. Close is idempotent.
	Close() error
}

// ErrReadOnly reports a write to a backend that does not accept writes
// (SnapshotBackend, a FileBackend opened read-only). Match with errors.Is.
var ErrReadOnly = errors.New("read-only backend")

// FileBackend is the file-backed Backend: a thin wrapper over *os.File.
// *os.File's ReadAt/WriteAt are positionless, so concurrent archive reads
// share no cursor and take no lock.
type FileBackend struct {
	f        *os.File
	writable bool
}

// OpenFileBackend opens path as an archive backend. With writable set the
// file opens read-write (the form scrub repairs need); otherwise writes
// report ErrReadOnly without touching the file.
func OpenFileBackend(path string, writable bool) (*FileBackend, error) {
	mode := os.O_RDONLY
	if writable {
		mode = os.O_RDWR
	}
	f, err := os.OpenFile(path, mode, 0)
	if err != nil {
		return nil, err
	}
	return &FileBackend{f: f, writable: writable}, nil
}

// ReadAt implements io.ReaderAt.
func (b *FileBackend) ReadAt(p []byte, off int64) (int, error) { return b.f.ReadAt(p, off) }

// WriteAt implements io.WriterAt; read-only backends report ErrReadOnly.
func (b *FileBackend) WriteAt(p []byte, off int64) (int, error) {
	if !b.writable {
		return 0, fmt.Errorf("store: writing %s: %w", b.f.Name(), ErrReadOnly)
	}
	return b.f.WriteAt(p, off)
}

// Close closes the underlying file. Closing twice reports the second
// close's error from the OS (os.ErrClosed), matching *os.File.
func (b *FileBackend) Close() error { return b.f.Close() }

// MemBackend is the in-memory Backend: a growable byte region safe for
// concurrent use, the substrate model for RAM-resident archives and tests.
type MemBackend struct {
	mu   sync.RWMutex
	data []byte
}

// NewMemBackend returns a memory backend holding a copy of data (the
// backend must not alias caller memory: archives read from it concurrently
// while the caller may keep mutating its slice).
func NewMemBackend(data []byte) *MemBackend {
	return &MemBackend{data: append([]byte(nil), data...)}
}

// readAtBytes is the ReadAt of the two byte-slice backends: the io.ReaderAt
// contract over data, reporting a read that runs past the end with io.EOF
// alongside the bytes it could copy.
func readAtBytes(data, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative read offset %d", off)
	}
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (b *MemBackend) ReadAt(p []byte, off int64) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return readAtBytes(b.data, p, off)
}

// WriteAt implements io.WriterAt, growing the region as needed (the gap, if
// any, zero-fills — exactly like a sparse file).
func (b *MemBackend) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("store: negative write offset %d", off)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(b.data)) {
		grown := make([]byte, end)
		copy(grown, b.data)
		b.data = grown
	}
	return copy(b.data[off:], p), nil
}

// Close is an idempotent no-op: memory needs no release.
func (b *MemBackend) Close() error { return nil }

// Bytes returns a copy of the current contents.
func (b *MemBackend) Bytes() []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return append([]byte(nil), b.data...)
}

// SnapshotBackend is the read-only Backend: an immutable view over a byte
// slice, for serving sealed archives (a mapped region, an embedded asset, a
// replica fetched whole). Reads are zero-copy and lock-free; every write
// reports ErrReadOnly.
type SnapshotBackend struct {
	data []byte
}

// NewSnapshotBackend wraps data as a read-only backend. The caller must not
// mutate data afterwards — that is the snapshot contract.
func NewSnapshotBackend(data []byte) *SnapshotBackend { return &SnapshotBackend{data: data} }

// ReadAt implements io.ReaderAt.
func (b *SnapshotBackend) ReadAt(p []byte, off int64) (int, error) {
	return readAtBytes(b.data, p, off)
}

// WriteAt always reports ErrReadOnly: snapshots are sealed.
func (b *SnapshotBackend) WriteAt(p []byte, off int64) (int, error) {
	return 0, fmt.Errorf("store: writing snapshot: %w", ErrReadOnly)
}

// Close is an idempotent no-op.
func (b *SnapshotBackend) Close() error { return nil }
