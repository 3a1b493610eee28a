package store

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/faultio"
)

// The faultio decorator must satisfy the store seam structurally, without
// either package importing the other.
var _ Backend = (*faultio.Reader)(nil)

// buildArchiveBuf writes a small multi-chunk archive and returns its bytes
// plus the source chunks for comparison.
func buildArchiveBuf(t *testing.T, gops int) ([]byte, []*codecVideoRef) {
	t.Helper()
	_, chunks, chunkParts := buildChunkedVideo(t, gops)
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, ArchiveMeta{
		W: chunks[0].W, H: chunks[0].H, FPS: chunks[0].FPS,
		GOPSize: chunks[0].Params.GOPSize, GOPsPerChunk: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeChunks(t, cw, chunks, chunkParts, 0)
	refs := make([]*codecVideoRef, len(chunks))
	for i, c := range chunks {
		refs[i] = &codecVideoRef{frames: len(c.Frames)}
	}
	return buf.Bytes(), refs
}

// codecVideoRef keeps just what backend tests compare against.
type codecVideoRef struct{ frames int }

// TestBackendsServeIdenticalArchives pins the seam contract: the same
// container opened through a file, a memory region, and a sealed snapshot
// yields the same index and the same chunk bytes.
func TestBackendsServeIdenticalArchives(t *testing.T) {
	data, refs := buildArchiveBuf(t, 3)

	path := filepath.Join(t.TempDir(), "a.vacs")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFileBackend(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	backends := map[string]Backend{
		"file":     fb,
		"mem":      NewMemBackend(data),
		"snapshot": NewSnapshotBackend(data),
	}
	want, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range backends {
		a, err := OpenArchiveBackend(b)
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if a.NumChunks() != len(refs) {
			t.Fatalf("%s: %d chunks, want %d", name, a.NumChunks(), len(refs))
		}
		for i := 0; i < a.NumChunks(); i++ {
			got, _, err := readStrict(a, i)
			if err != nil {
				t.Fatalf("%s: chunk %d: %v", name, i, err)
			}
			ref, _, err := readStrict(want, i)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Frames) != len(ref.Frames) {
				t.Fatalf("%s: chunk %d: %d frames, want %d", name, i, len(got.Frames), len(ref.Frames))
			}
			gd, err := codec.DecodeContext(context.Background(), got, codec.DecodeOptions{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			rd, err := codec.DecodeContext(context.Background(), ref, codec.DecodeOptions{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for f := range gd.Frames {
				if !bytes.Equal(gd.Frames[f].Y, rd.Frames[f].Y) {
					t.Fatalf("%s: chunk %d frame %d differs", name, i, f)
				}
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
	data, _ := buildArchiveBuf(t, 2)
	clean := bytes.Clone(data)

	// Corrupt the last payload byte (inside the final stream region).
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0xFF

	a, err := OpenArchiveBackend(NewSnapshotBackend(bad), WithMirror(bytes.NewReader(clean)))
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
