package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"videoapp/internal/codec"
)

// TestArchiveRegionSizes checks the reliability split of a record: the
// precisely kept region (headers + pivot tables) is a minor share of the
// approximate streams (the paper: headers < 0.1% of storage; ours are
// relatively bigger on tiny videos but still clearly minor).
func TestArchiveRegionSizes(t *testing.T) {
	a := open(t, archiveOf(t, 3).archive)
	for i, rec := range a.recs {
		var approx int64
		for _, rs := range rec.streams {
			approx += rs.bytes
		}
		if precise := rec.preciseLen + rec.pivotLen; precise <= 0 || approx <= 0 || precise > approx/2 {
			t.Fatalf("chunk %d: precise region %d vs approximate %d bytes", i, precise, approx)
		}
	}
}

func TestChunkArchiveRoundTrip(t *testing.T) {
	e := archiveOf(t, 3)
	a := open(t, e.archive)
	if a.NumChunks() != len(e.chunks) || a.TotalFrames() != len(e.v.Frames) {
		t.Fatalf("%d chunks of %d frames, want %d of %d", a.NumChunks(), a.TotalFrames(), len(e.chunks), len(e.v.Frames))
	}
	if want := (ArchiveMeta{W: e.v.W, H: e.v.H, FPS: e.v.FPS, GOPSize: 4, GOPsPerChunk: 1}); a.Meta() != want {
		t.Fatalf("meta mismatch: %+v vs %+v", a.Meta(), want)
	}
	// Each chunk decodes on its own, pixel-identical to the same frames
	// decoded as part of the whole video.
	whole, err := codec.DecodeContext(context.Background(), e.v, codec.DecodeOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := 0
	for i := range e.chunks {
		if err := e.sameChunk(a, i); err != nil {
			t.Fatal(err)
		}
		got, _, _ := readStrict(a, i)
		dec, err := codec.DecodeContext(context.Background(), got, codec.DecodeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for f := range dec.Frames {
			if !bytes.Equal(dec.Frames[f].Y, whole.Frames[base+f].Y) {
				t.Fatalf("chunk %d frame %d: decode differs from whole video", i, f)
			}
		}
		base += len(dec.Frames)
	}
}

// chunkLocality pins the random-access guarantee over a spying ReaderAt:
// indexing the archive reads headers only, and reading chunk i reads bytes
// exclusively inside chunk i's payload range, for each i of chunks in turn.
func chunkLocality(t *testing.T, chunks ...int) {
	spy := &spyAt{r: bytes.NewReader(archiveOf(t, 3).archive)}
	a, err := OpenArchiveBackend(spy)
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
		for _, rd := range spy.reads {
			if rd[0] < hi && rd[1] > lo {
				t.Fatalf("Open read [%d,%d) inside chunk %d payload [%d,%d)", rd[0], rd[1], i, lo, hi)
			}
		}
	}
	for _, i := range chunks {
		spy.reads = nil
		if _, _, err := readStrict(a, i); err != nil {
			t.Fatal(err)
		}
		lo, hi := payload(i)
		if len(spy.reads) == 0 {
			t.Fatalf("the read of chunk %d read nothing", i)
		}
		for _, rd := range spy.reads {
			if rd[0] < lo || rd[1] > hi {
				t.Fatalf("chunk %d read [%d,%d) outside its payload [%d,%d)", i, rd[0], rd[1], lo, hi)
			}
		}
	}
}

// TestReadChunkTouchesOnlyItsPayload: the middle chunk's read stays inside
// its payload.
func TestReadChunkTouchesOnlyItsPayload(t *testing.T) { chunkLocality(t, 1) }

// TestReaderAtReadChunkLocality: so does every chunk's, read in reverse
// order, the first and the last among them.
func TestReaderAtReadChunkLocality(t *testing.T) { chunkLocality(t, 2, 1, 0) }

// appendChunks appends chunks [from, to) of e to cw at their global first
// frames.
func appendChunks(t *testing.T, cw *ChunkWriter, e *entry, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := cw.Append(e.chunks[i], e.chunkParts[i], e.chunkParts[i][0].Frame); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendChunkWriter exercises append-on-write: reopening an archive file
// and appending more chunks must leave earlier chunks untouched and index
// the new ones.
func TestAppendChunkWriter(t *testing.T) {
	e := archiveOf(t, 3)
	path := filepath.Join(t.TempDir(), "archive.vacs")
	// The container of the first two chunks is the corpus container cut
	// after its second record.
	if err := os.WriteFile(path, e.archive[:recordStart(t, e, 2)], 0o644); err != nil {
		t.Fatal(err)
	}
	rw, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := AppendChunkWriter(context.Background(), rw)
	if err != nil {
		t.Fatal(err)
	}
	if aw.Frames() != 8 {
		t.Fatalf("append writer resumes at frame %d, want 8", aw.Frames())
	}
	appendChunks(t, aw, e, 2, 3)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, e.archive) {
		t.Fatal("two chunks written and one appended differ from the three written at once")
	}
}

// recordStart is the offset of chunk i's record — its header's first byte —
// in e's container.
func recordStart(t *testing.T, e *entry, i int) int {
	t.Helper()
	prev, err := open(t, e.archive).Info(i - 1)
	if err != nil {
		t.Fatal(err)
	}
	return int(prev.Offset + prev.Length)
}

// TestAppendTornTail is the crash-consistency contract of append-on-write: a
// writer that dies anywhere inside its third record — or a medium that keeps
// the length and scrambles the bytes — leaves a container whose first two
// chunks still read bit-identically, whose third chunk is either absent,
// refused with a typed error or exactly right, and which AppendChunkWriter
// either refuses or extends into an archive that verifies end to end. Never
// a panic, never wrong bytes served as a chunk.
func TestAppendTornTail(t *testing.T) {
	e := archiveOf(t, 3)
	whole := e.archive
	oldEnd := recordStart(t, e, 2)

	typed := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("%s: want an error wrapping ErrCorruptRecord, got %v", what, err)
		}
	}
	same := func(what string, a *ChunkArchive, i int) {
		t.Helper()
		if err := e.sameChunk(a, i); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	// One checksum attempt per region: a scrambled tail is not transient.
	once := WithFaultPolicy(FaultPolicy{MaxRetries: -1})
	check := func(what string, torn []byte) {
		t.Helper()
		a, err := OpenArchiveBackend(bytes.NewReader(torn), once)
		if err != nil {
			typed(what+": open", err) // a torn header: the whole container is refused
		} else {
			if n := a.NumChunks(); n != 2 && n != 3 {
				t.Fatalf("%s: %d chunks indexed, want 2 or 3", what, n)
			}
			same(what, a, 0)
			same(what, a, 1)
			if a.NumChunks() == 3 {
				if _, _, err := readStrict(a, 2); err != nil {
					typed(what+": chunk 2", err)
				} else {
					same(what, a, 2)
				}
			}
		}

		trw := &rwsBuffer{data: bytes.Clone(torn)}
		aw, err := AppendChunkWriter(context.Background(), trw)
		if err != nil {
			typed(what+": append", err)
			return
		}
		if aw.Frames() != 8 {
			t.Fatalf("%s: append accepted the torn record (resumes at frame %d, want 8)", what, aw.Frames())
		}
		appendChunks(t, aw, e, 2, 3)
		b := open(t, trw.data, once)
		if b.NumChunks() != 3 {
			t.Fatalf("%s: after append: %d chunks, want 3", what, b.NumChunks())
		}
		for i := range e.chunks {
			same(what+": after append", b, i)
		}
	}

	for cut := oldEnd; cut < len(whole); cut++ {
		check(fmt.Sprintf("truncated at %d of %d", cut, len(whole)), whole[:cut])
	}
	// Same length, wrong bytes: the whole record, its header past the marker,
	// its payload, the second half of its payload, the last stream byte.
	third, err := open(t, whole).Info(2)
	if err != nil {
		t.Fatal(err)
	}
	payload := int(third.Offset)
	for _, from := range []int{oldEnd, oldEnd + 4, payload, (payload + len(whole)) / 2, len(whole) - 1} {
		torn := bytes.Clone(whole)
		for i := from; i < len(torn); i++ {
			torn[i] ^= 0xA5
		}
		check(fmt.Sprintf("scrambled from %d of %d", from, len(whole)), torn)
	}
}

func TestChunkWriterRejectsOutOfOrder(t *testing.T) {
	e := archiveOf(t, 2)
	cw, err := NewChunkWriter(&bytes.Buffer{}, ArchiveMeta{W: e.v.W, H: e.v.H, FPS: e.v.FPS, GOPSize: 4, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Append(e.chunks[1], e.chunkParts[1], 7); err == nil {
		t.Fatal("out-of-order chunk must be rejected")
	}
}

func TestOpenChunkArchiveRejectsGarbage(t *testing.T) {
	e := archiveOf(t, 2)
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE\x01aaaaaaaaaaaaaaaaaaaa"),
		"truncated": []byte("VACS"),
		// The second record's marker starts right after the first chunk's
		// payload; corrupting it must fail indexing cleanly.
		"corrupt chunk marker": flipped(e.archive, int64(recordStart(t, e, 1)), 0xFF),
	}
	// The first record's first stream entry declares one bit more than its
	// bytes hold.
	overfull := bytes.Clone(e.archive)
	entry := archiveHeaderLen + chunkFixedLen
	at := entry + 1 + int(overfull[entry])
	binary.BigEndian.PutUint64(overfull[at:], 8*uint64(binary.BigEndian.Uint32(overfull[at+8:]))+1)
	cases["stream bits past its bytes"] = overfull
	for name, data := range cases {
		if _, err := OpenArchiveBackend(bytes.NewReader(data)); !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("%s: want ErrCorruptRecord, got %v", name, err)
		}
	}
}
