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

// buildArchiveBytes writes a small multi-chunk archive into memory and
// returns its bytes alongside the chunk-local source videos.
func buildArchiveBytes(t testing.TB, gops int) ([]byte, [][]byte) {
	t.Helper()
	v, chunks, chunkParts := buildChunkedVideo(t, gops)
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: v.Params.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	writeChunks(t, cw, chunks, chunkParts, 0)
	var payloads [][]byte
	for _, c := range chunks {
		var frames []byte
		for _, f := range c.Frames {
			frames = append(frames, f.Payload...)
		}
		payloads = append(payloads, frames)
	}
	return buf.Bytes(), payloads
}

// TestConcurrentReadChunkBitIdentical pins the tentpole guarantee of the
// ReaderAt read path: N goroutines reading all M chunks in shuffled orders
// see frames bit-identical to a serial reader, with no locking and (under
// -race) no data races.
func TestConcurrentReadChunkBitIdentical(t *testing.T) {
	data, _ := buildArchiveBytes(t, 4)
	a, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	// Serial baseline: the reference payload bytes of every chunk.
	want := make([][][]byte, a.NumChunks())
	for i := range want {
		v, _, err := readStrict(a, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range v.Frames {
			want[i] = append(want[i], f.Payload)
		}
	}

	const readers = 32
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			order := rng.Perm(a.NumChunks())
			for _, i := range order {
				v, parts, err := readStrict(a, i)
				if err != nil {
					errs <- fmt.Errorf("reader %d chunk %d: %w", g, i, err)
					return
				}
				if len(parts) != len(v.Frames) {
					errs <- fmt.Errorf("reader %d chunk %d: %d parts for %d frames", g, i, len(parts), len(v.Frames))
					return
				}
				for f := range v.Frames {
					if !bytes.Equal(v.Frames[f].Payload, want[i][f]) {
						errs <- fmt.Errorf("reader %d chunk %d frame %d: payload differs from serial read", g, i, f)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOpenArchiveTypedErrors(t *testing.T) {
	data, _ := buildArchiveBytes(t, 2)

	t.Run("zero-length file", func(t *testing.T) {
		_, err := OpenArchiveBackend(bytes.NewReader(nil))
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("want ErrCorruptRecord, got %v", err)
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("raw io.EOF must not surface: %v", err)
		}
	})
	t.Run("truncated stream header", func(t *testing.T) {
		_, err := OpenArchiveBackend(bytes.NewReader(data[:10]))
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("want ErrCorruptRecord, got %v", err)
		}
	})
	t.Run("truncated chunk index", func(t *testing.T) {
		// Cut inside the first chunk record's header (just past the
		// stream header) so the index scan hits a partial record.
		_, err := OpenArchiveBackend(bytes.NewReader(data[:archiveHeaderLen+10]))
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("want ErrCorruptRecord, got %v", err)
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("raw io.EOF must not surface: %v", err)
		}
	})
	// A cut at, or one byte into, the first stream entry: running out of
	// bytes inside a record is truncation, never the clean end of the
	// container that the index scan stops at.
	if data[archiveHeaderLen+chunkFixedLen-1] == 0 {
		t.Fatal("the first chunk has no stream entry to cut into")
	}
	for _, cut := range []int{archiveHeaderLen + chunkFixedLen, archiveHeaderLen + chunkFixedLen + 1} {
		t.Run(fmt.Sprintf("truncated stream entry at %d", cut), func(t *testing.T) {
			_, err := OpenArchiveBackend(bytes.NewReader(data[:cut]))
			if !errors.Is(err, ErrCorruptRecord) || errors.Is(err, io.EOF) {
				t.Fatalf("want ErrCorruptRecord without io.EOF, got %v", err)
			}
		})
	}
	t.Run("end of container is not retried", func(t *testing.T) {
		r := &eofCounter{r: bytes.NewReader(data)}
		if _, err := OpenArchiveBackend(r); err != nil {
			t.Fatal(err)
		}
		if r.eofs != 1 {
			t.Fatalf("%d EOF-class reads, want 1: the scan retried its end-of-container signal", r.eofs)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[0] ^= 0xFF
		_, err := OpenArchiveBackend(bytes.NewReader(bad))
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("want ErrCorruptRecord, got %v", err)
		}
	})
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
		a, err := OpenArchiveBackend(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := readStrict(a, 99); !errors.Is(err, ErrChunkNotFound) {
			t.Fatalf("chunk 99): want ErrChunkNotFound, got %v", err)
		}
		if _, _, err := readStrict(a, -1); !errors.Is(err, ErrChunkNotFound) {
			t.Fatalf("chunk -1): want ErrChunkNotFound, got %v", err)
		}
		if _, err := a.Info(99); !errors.Is(err, ErrChunkNotFound) {
			t.Fatalf("Info(99): want ErrChunkNotFound, got %v", err)
		}
	})
	t.Run("archive closed", func(t *testing.T) {
		a, err := OpenArchiveBackend(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
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

// eofCounter counts the reads of r that report an EOF-class error.
type eofCounter struct {
	r    io.ReaderAt
	eofs int
}

func (c *eofCounter) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		c.eofs++
	}
	return n, err
}

// trackingReaderAt records every byte range fetched through ReadAt.
type trackingReaderAt struct {
	r  *bytes.Reader
	mu sync.Mutex
	// reads holds [start, end) ranges in call order.
	reads [][2]int64
}

func (tr *trackingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := tr.r.ReadAt(p, off)
	if n > 0 {
		tr.mu.Lock()
		tr.reads = append(tr.reads, [2]int64{off, off + int64(n)})
		tr.mu.Unlock()
	}
	return n, err
}

// TestReaderAtReadChunkLocality re-pins the random-access guarantee on the
// native ReaderAt path: indexing reads no payload bytes, and reading chunk i
// reads exclusively inside chunk i's payload range.
func TestReaderAtReadChunkLocality(t *testing.T) {
	data, _ := buildArchiveBytes(t, 3)
	tr := &trackingReaderAt{r: bytes.NewReader(data)}
	a, err := OpenArchiveBackend(tr)
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) (int64, int64) {
		info, err := a.Info(i)
		if err != nil {
			t.Fatal(err)
		}
		return info.Offset, info.Offset + info.Length
	}
	for i := 0; i < a.NumChunks(); i++ {
		lo, hi := payload(i)
		for _, rd := range tr.reads {
			if rd[0] < hi && rd[1] > lo {
				t.Fatalf("Open read [%d,%d) inside chunk %d payload [%d,%d)", rd[0], rd[1], i, lo, hi)
			}
		}
	}
	tr.reads = nil
	if _, _, err := readStrict(a, 1); err != nil {
		t.Fatal(err)
	}
	lo, hi := payload(1)
	if len(tr.reads) == 0 {
		t.Fatal("the chunk read read nothing")
	}
	for _, rd := range tr.reads {
		if rd[0] < lo || rd[1] > hi {
			t.Fatalf("chunk 1 read [%d,%d) outside its payload [%d,%d)", rd[0], rd[1], lo, hi)
		}
	}
}

// eofAtEndReader is a conforming io.ReaderAt of the kind the contract allows
// and bytes.Reader is not: a read that ends exactly at the end of the data
// returns every byte together with io.EOF.
type eofAtEndReader struct{ data []byte }

func (r eofAtEndReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(r.data)) {
		return 0, io.EOF
	}
	n := copy(p, r.data[off:])
	if off+int64(n) == int64(len(r.data)) {
		return n, io.EOF
	}
	return n, nil
}

// TestFullReadWithEOFIsNotTruncation: the last stream of the last chunk ends
// at the end of the container, so such a reader hands it over with io.EOF
// attached. Every byte and CRC is intact; the strict read must succeed and
// the context read must not degrade, exactly as over a bytes.Reader.
func TestFullReadWithEOFIsNotTruncation(t *testing.T) {
	data, _ := buildArchiveBytes(t, 2)
	for name, r := range map[string]io.ReaderAt{"bytes.Reader": bytes.NewReader(data), "full read + EOF": eofAtEndReader{data}} {
		t.Run(name, func(t *testing.T) {
			a, err := OpenArchiveBackend(r)
			if err != nil {
				t.Fatal(err)
			}
			last := a.NumChunks() - 1
			if _, _, err := readStrict(a, last); err != nil {
				t.Fatalf("chunk %d: %v", last, err)
			}
			rep, err := a.Scrub(context.Background())
			if err != nil || !rep.Healthy() {
				t.Fatalf("scrub of an intact archive: %+v, %v", rep, err)
			}
		})
	}
}
