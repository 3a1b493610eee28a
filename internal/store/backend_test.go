package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"videoapp/internal/faultio"
)

// The faultio decorator must satisfy the store seam structurally, without
// either package importing the other.
var _ Backend = (*faultio.Reader)(nil)

// TestBackendsServeIdenticalArchives pins the seam contract: the same
// container opened through a file, a memory region, and a sealed snapshot
// yields the same index and every chunk as it was written.
func TestBackendsServeIdenticalArchives(t *testing.T) {
	e := archiveOf(t, 3)
	path := filepath.Join(t.TempDir(), "a.vacs")
	if err := os.WriteFile(path, e.archive, 0o644); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFileBackend(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	for name, b := range map[string]Backend{"file": fb, "mem": NewMemBackend(e.archive), "snapshot": NewSnapshotBackend(e.archive)} {
		a, err := OpenArchiveBackend(b)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if a.NumChunks() != len(e.chunks) {
			t.Fatalf("%s: %d chunks, want %d", name, a.NumChunks(), len(e.chunks))
		}
		for i := range e.chunks {
			if err := e.sameChunk(a, i); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

// TestReadOnlyBackendsRejectWrites: writes to sealed media report
// ErrReadOnly without mutating anything.
func TestReadOnlyBackendsRejectWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ro.bin")
	if err := os.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFileBackend(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	snap := NewSnapshotBackend([]byte("hello"))
	for name, b := range map[string]Backend{"file": fb, "snapshot": snap} {
		if _, err := b.WriteAt([]byte("x"), 0); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%s: WriteAt error = %v, want ErrReadOnly", name, err)
		}
	}
	if got, _ := os.ReadFile(path); string(got) != "hello" {
		t.Fatalf("read-only file mutated: %q", got)
	}
	buf := make([]byte, 5)
	if _, err := snap.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("snapshot mutated: %q", buf)
	}
}

// TestMemBackendGrowsAndZeroFills: WriteAt past the end grows the region
// with a zero gap, like a sparse file, up to the high-water mark.
func TestMemBackendGrowsAndZeroFills(t *testing.T) {
	b := NewMemBackend(nil)
	if _, err := b.WriteAt([]byte{0xAA}, 4); err != nil {
		t.Fatal(err)
	}
	got := b.Bytes()
	want := []byte{0, 0, 0, 0, 0xAA}
	if !bytes.Equal(got, want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
	// Reads at and past the end follow the io.ReaderAt contract.
	p := make([]byte, 2)
	if n, err := b.ReadAt(p, 4); n != 1 || err != io.EOF {
		t.Fatalf("tail read = (%d, %v), want (1, EOF)", n, err)
	}
	if _, err := b.ReadAt(p, 99); err != io.EOF {
		t.Fatalf("past-end read err = %v, want EOF", err)
	}
}

// TestMemBackendConcurrent: concurrent readers and writers on disjoint
// ranges stay race-free and every byte lands (run under -race).
func TestMemBackendConcurrent(t *testing.T) {
	b := NewMemBackend(make([]byte, 64))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			chunk := bytes.Repeat([]byte{byte(g + 1)}, 8)
			for i := 0; i < 50; i++ {
				if _, err := b.WriteAt(chunk, int64(g*8)); err != nil {
					t.Error(err)
					return
				}
				p := make([]byte, 8)
				if _, err := b.ReadAt(p, int64(g*8)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	data := b.Bytes()
	for g := 0; g < 8; g++ {
		for i := 0; i < 8; i++ {
			if data[g*8+i] != byte(g+1) {
				t.Fatalf("byte %d = %d, want %d", g*8+i, data[g*8+i], g+1)
			}
		}
	}
}

// TestScrubReadOnlyBackendReportsUnrepaired: a damaged region on sealed
// media is reported damaged but never repaired — the WriteAt refusal must
// not fail the pass.
func TestScrubReadOnlyBackendReportsUnrepaired(t *testing.T) {
	e := archiveOf(t, 2)
	// Corrupt the last payload byte (inside the final stream region).
	bad := flipped(e.archive, int64(len(e.archive)-1), 0xFF)
	a, err := OpenArchiveBackend(NewSnapshotBackend(bad), WithMirror(bytes.NewReader(e.archive)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Scrub(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged == 0 {
		t.Fatal("scrub found no damage in a corrupted archive")
	}
	if rep.Repaired != 0 {
		t.Fatalf("scrub repaired %d regions on a read-only backend", rep.Repaired)
	}
}
