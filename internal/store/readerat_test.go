package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentReadChunkBitIdentical pins the tentpole guarantee of the
// ReaderAt read path: N goroutines reading all M chunks in shuffled orders
// see every chunk exactly as it was written, with no locking and (under
// -race) no data races.
func TestConcurrentReadChunkBitIdentical(t *testing.T) {
	e := archiveOf(t, 4)
	a := open(t, e.archive)
	const readers = 32
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(a.NumChunks()) {
				if err := e.sameChunk(a, i); err != nil {
					errs[g] = fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

func TestOpenArchiveTypedErrors(t *testing.T) {
	data := archiveOf(t, 2).archive
	// typedAt requires an error wrapping ErrCorruptRecord that is not of
	// the raw EOF class.
	typedAt := func(t *testing.T, data []byte) {
		t.Helper()
		_, err := OpenArchiveBackend(bytes.NewReader(data))
		if !errors.Is(err, ErrCorruptRecord) || errors.Is(err, io.EOF) {
			t.Fatalf("want ErrCorruptRecord without io.EOF, got %v", err)
		}
	}
	t.Run("zero-length file", func(t *testing.T) { typedAt(t, nil) })
	t.Run("truncated stream header", func(t *testing.T) { typedAt(t, data[:10]) })
	// Cut inside the first chunk record's header (just past the stream
	// header) so the index scan hits a partial record.
	t.Run("truncated chunk index", func(t *testing.T) { typedAt(t, data[:archiveHeaderLen+10]) })
	// A cut at, or one byte into, the first stream entry: running out of
	// bytes inside a record is truncation, never the clean end of the
	// container that the index scan stops at.
	if data[archiveHeaderLen+chunkFixedLen-1] == 0 {
		t.Fatal("the first chunk has no stream entry to cut into")
	}
	for _, cut := range []int{archiveHeaderLen + chunkFixedLen, archiveHeaderLen + chunkFixedLen + 1} {
		t.Run(fmt.Sprintf("truncated stream entry at %d", cut), func(t *testing.T) { typedAt(t, data[:cut]) })
	}
	t.Run("end of container is not retried", func(t *testing.T) {
		spy := &spyAt{r: bytes.NewReader(data)}
		if _, err := OpenArchiveBackend(spy); err != nil {
			t.Fatal(err)
		}
		if spy.eofs != 1 {
			t.Fatalf("%d EOF-class reads, want 1: the scan retried its end-of-container signal", spy.eofs)
		}
	})
	t.Run("bad magic", func(t *testing.T) { typedAt(t, flipped(data, 0, 0xFF)) })
	// The checksum-less version 1 layout is no longer readable: a v1 version
	// byte — over a bare header or over real records — is rejected at open,
	// for reading and for appending alike, never parsed.
	wrongVersion := bytes.Clone(data)
	wrongVersion[4] = 1
	for name, v1 := range map[string][]byte{"version 1 header": v1Header(), "version 1 byte over records": wrongVersion} {
		t.Run(name, func(t *testing.T) {
			_, err := OpenArchiveBackend(bytes.NewReader(v1))
			if !errors.Is(err, ErrCorruptRecord) || !strings.Contains(err.Error(), "unsupported archive version 1") {
				t.Fatalf("open: want ErrCorruptRecord naming version 1, got %v", err)
			}
			_, err = AppendChunkWriter(context.Background(), &rwsBuffer{data: v1})
			if !errors.Is(err, ErrCorruptRecord) || !strings.Contains(err.Error(), "unsupported archive version 1") {
				t.Fatalf("append: want ErrCorruptRecord naming version 1, got %v", err)
			}
		})
	}
	t.Run("chunk not found", func(t *testing.T) {
		a := open(t, data)
		for _, i := range []int{99, -1} {
			if _, _, err := readStrict(a, i); !errors.Is(err, ErrChunkNotFound) {
				t.Fatalf("chunk %d: want ErrChunkNotFound, got %v", i, err)
			}
		}
		if _, err := a.Info(99); !errors.Is(err, ErrChunkNotFound) {
			t.Fatalf("Info(99): want ErrChunkNotFound, got %v", err)
		}
	})
	t.Run("archive closed", func(t *testing.T) {
		a := open(t, data)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("Close must be idempotent: %v", err)
		}
		if _, _, err := readStrict(a, 0); !errors.Is(err, ErrArchiveClosed) {
			t.Fatalf("want ErrArchiveClosed, got %v", err)
		}
	})
}

// TestFullReadWithEOFIsNotTruncation: the last stream of the last chunk ends
// at the end of the container, so such a reader hands it over with io.EOF
// attached. Every byte and CRC is intact; the strict read must succeed and
// the context read must not degrade, exactly as over a bytes.Reader.
func TestFullReadWithEOFIsNotTruncation(t *testing.T) {
	e := archiveOf(t, 2)
	for name, r := range map[string]io.ReaderAt{"bytes.Reader": bytes.NewReader(e.archive), "full read + EOF": eofAtEndReader{e.archive}} {
		t.Run(name, func(t *testing.T) {
			a, err := OpenArchiveBackend(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.sameChunk(a, a.NumChunks()-1); err != nil {
				t.Fatal(err)
			}
			rep, err := a.Scrub(context.Background())
			if err != nil || !rep.Healthy() {
				t.Fatalf("scrub of an intact archive: %+v, %v", rep, err)
			}
		})
	}
}
