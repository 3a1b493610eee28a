package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/synth"
)

// readStrict reads chunk i through ReadChunkContext and treats a degraded
// approximate stream as an error wrapping ErrCorruptRecord — the strict
// read the archive tests assert against, and the check AppendChunkWriter
// makes of a container's last record.
func readStrict(a *ChunkArchive, i int) (*codec.Video, []core.FramePartition, error) {
	cr, err := a.ReadChunkContext(context.Background(), i)
	if err != nil {
		return nil, nil, err
	}
	if len(cr.Degraded) > 0 {
		return nil, nil, fmt.Errorf("%w: chunk %d: streams %v failed verification", ErrCorruptRecord, i, cr.Degraded)
	}
	return cr.Video, cr.Parts, nil
}

// buildChunkedVideo encodes a multi-GOP video and splits it at GOP
// boundaries into chunk-local videos with their partitions, the form the
// streaming pipeline hands to the archive writer.
func buildChunkedVideo(t testing.TB, gops int) (*codec.Video, []*codec.Video, [][]core.FramePartition) {
	t.Helper()
	const gopSize = 4
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(96, 64, gops*gopSize))
	p := codec.DefaultParams()
	p.GOPSize = gopSize
	p.SearchRange = 8
	v, err := codec.EncodeParallelContext(context.Background(), seq, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := an.Partition(core.PaperAssignment())
	var chunks []*codec.Video
	var chunkParts [][]core.FramePartition
	for s := 0; s < len(v.Frames); s += gopSize {
		e := min(s+gopSize, len(v.Frames))
		sub := &codec.Video{Params: p, W: v.W, H: v.H, FPS: v.FPS}
		for _, f := range v.Frames[s:e] {
			sub.Frames = append(sub.Frames, f)
		}
		sub = sub.Clone()
		sub.ShiftIndices(-s)
		chunks = append(chunks, sub)
		chunkParts = append(chunkParts, parts[s:e])
	}
	return v, chunks, chunkParts
}

func writeChunks(t testing.TB, cw *ChunkWriter, chunks []*codec.Video, parts [][]core.FramePartition, firstFrame int) int {
	t.Helper()
	for i, c := range chunks {
		if err := cw.Append(c, parts[i], firstFrame); err != nil {
			t.Fatal(err)
		}
		firstFrame += len(c.Frames)
	}
	return firstFrame
}

// TestArchiveRegionSizes checks the reliability split of a record: the
// precisely kept region (headers + pivot tables) is a minor share of the
// approximate streams (the paper: headers < 0.1% of storage; ours are
// relatively bigger on tiny videos but still clearly minor).
func TestArchiveRegionSizes(t *testing.T) {
	data, _ := buildArchiveBytes(t, 3)
	a, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
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
	v, chunks, chunkParts := buildChunkedVideo(t, 3)
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: v.Params.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	writeChunks(t, cw, chunks, chunkParts, 0)

	a, err := OpenArchiveBackend(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChunks() != len(chunks) {
		t.Fatalf("%d chunks, want %d", a.NumChunks(), len(chunks))
	}
	if a.TotalFrames() != len(v.Frames) {
		t.Fatalf("%d frames, want %d", a.TotalFrames(), len(v.Frames))
	}
	if a.Meta() != cw.Meta() {
		t.Fatalf("meta mismatch: %+v vs %+v", a.Meta(), cw.Meta())
	}
	base := 0
	for i, want := range chunks {
		got, parts, err := readStrict(a, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Frames) != len(want.Frames) || len(parts) != len(want.Frames) {
			t.Fatalf("chunk %d: %d frames, %d parts, want %d", i, len(got.Frames), len(parts), len(want.Frames))
		}
		for f := range want.Frames {
			if !bytes.Equal(got.Frames[f].Payload, want.Frames[f].Payload) {
				t.Fatalf("chunk %d frame %d: payload differs", i, f)
			}
		}
		// The chunk must decode on its own, pixel-identical to the same
		// frames decoded as part of the whole video.
		whole, err := codec.DecodeContext(context.Background(), v, codec.DecodeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.DecodeContext(context.Background(), got, codec.DecodeOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for f := range dec.Frames {
			if !bytes.Equal(dec.Frames[f].Y, whole.Frames[base+f].Y) {
				t.Fatalf("chunk %d frame %d: decode differs from whole video", i, f)
			}
		}
		base += len(want.Frames)
	}
}

// trackingReader records every byte range read from the underlying reader.
type trackingReader struct {
	r     *bytes.Reader
	mu    sync.Mutex
	reads [][2]int64
}

func (tr *trackingReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := tr.r.ReadAt(p, off)
	if n > 0 {
		tr.mu.Lock()
		tr.reads = append(tr.reads, [2]int64{off, off + int64(n)})
		tr.mu.Unlock()
	}
	return n, err
}

// TestReadChunkTouchesOnlyItsPayload pins the random-access guarantee:
// indexing the archive reads headers only, and reading chunk i reads bytes
// exclusively inside chunk i's payload range.
func TestReadChunkTouchesOnlyItsPayload(t *testing.T) {
	v, chunks, chunkParts := buildChunkedVideo(t, 3)
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: v.Params.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	writeChunks(t, cw, chunks, chunkParts, 0)

	tr := &trackingReader{r: bytes.NewReader(buf.Bytes())}
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
	// Open must not have read inside any chunk's payload.
	for i := 0; i < a.NumChunks(); i++ {
		lo, hi := payload(i)
		for _, rd := range tr.reads {
			if rd[0] < hi && rd[1] > lo {
				t.Fatalf("Open read [%d,%d) inside chunk %d payload [%d,%d)", rd[0], rd[1], i, lo, hi)
			}
		}
	}
	// Reading chunk 1 must stay inside chunk 1's payload range.
	tr.reads = nil
	if _, _, err := readStrict(a, 1); err != nil {
		t.Fatal(err)
	}
	lo, hi := payload(1)
	for _, rd := range tr.reads {
		if rd[0] < lo || rd[1] > hi {
			t.Fatalf("chunk 1 read [%d,%d) outside its payload [%d,%d)", rd[0], rd[1], lo, hi)
		}
	}
	if len(tr.reads) == 0 {
		t.Fatal("the chunk read read nothing")
	}
}

// TestAppendChunkWriter exercises append-on-write: reopening an archive file
// and appending more chunks must leave earlier chunks untouched and index
// the new ones.
func TestAppendChunkWriter(t *testing.T) {
	v, chunks, chunkParts := buildChunkedVideo(t, 3)
	path := filepath.Join(t.TempDir(), "archive.vacs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := NewChunkWriter(f, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: v.Params.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := writeChunks(t, cw, chunks[:2], chunkParts[:2], 0)
	if err := f.Close(); err != nil {
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
	if aw.Frames() != next {
		t.Fatalf("append writer resumes at frame %d, want %d", aw.Frames(), next)
	}
	writeChunks(t, aw, chunks[2:], chunkParts[2:], next)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChunks() != 3 || a.TotalFrames() != len(v.Frames) {
		t.Fatalf("after append: %d chunks, %d frames", a.NumChunks(), a.TotalFrames())
	}
	for i, want := range chunks {
		got, _, err := readStrict(a, i)
		if err != nil {
			t.Fatal(err)
		}
		for f := range want.Frames {
			if !bytes.Equal(got.Frames[f].Payload, want.Frames[f].Payload) {
				t.Fatalf("chunk %d frame %d differs after append", i, f)
			}
		}
	}
}

// TestAppendTornTail is the crash-consistency contract of append-on-write: a
// writer that dies anywhere inside its third record — or a medium that keeps
// the length and scrambles the bytes — leaves a container whose first two
// chunks still read bit-identically, whose third chunk is either absent,
// refused with a typed error or exactly right, and which AppendChunkWriter
// either refuses or extends into an archive that verifies end to end. Never
// a panic, never wrong bytes served as a chunk.
func TestAppendTornTail(t *testing.T) {
	v, chunks, chunkParts := buildChunkedVideo(t, 3)
	rw := &rwsBuffer{}
	cw, err := NewChunkWriter(rw, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: v.Params.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	next := writeChunks(t, cw, chunks[:2], chunkParts[:2], 0)
	oldEnd := len(rw.data)
	writeChunks(t, cw, chunks[2:], chunkParts[2:], next)
	whole := rw.data

	typed := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("%s: want an error wrapping ErrCorruptRecord, got %v", what, err)
		}
	}
	// sameChunk requires chunk i of a to read back as the video it was
	// written from.
	sameChunk := func(what string, a *ChunkArchive, i int) {
		t.Helper()
		got, _, err := readStrict(a, i)
		if err != nil {
			t.Fatalf("%s: chunk %d: %v", what, i, err)
		}
		if len(got.Frames) != len(chunks[i].Frames) {
			t.Fatalf("%s: chunk %d: %d frames, want %d", what, i, len(got.Frames), len(chunks[i].Frames))
		}
		for f, want := range chunks[i].Frames {
			if !bytes.Equal(got.Frames[f].Payload, want.Payload) {
				t.Fatalf("%s: chunk %d frame %d differs", what, i, f)
			}
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
			sameChunk(what, a, 0)
			sameChunk(what, a, 1)
			if a.NumChunks() == 3 {
				if _, _, err := readStrict(a, 2); err != nil {
					typed(what+": chunk 2", err)
				} else {
					sameChunk(what, a, 2)
				}
			}
		}

		trw := &rwsBuffer{data: bytes.Clone(torn)}
		aw, err := AppendChunkWriter(context.Background(), trw)
		if err != nil {
			typed(what+": append", err)
			return
		}
		if aw.Frames() != next {
			t.Fatalf("%s: append accepted the torn record (resumes at frame %d, want %d)", what, aw.Frames(), next)
		}
		writeChunks(t, aw, chunks[2:], chunkParts[2:], next)
		b, err := OpenArchiveBackend(bytes.NewReader(trw.data), once)
		if err != nil {
			t.Fatalf("%s: after append: %v", what, err)
		}
		if b.NumChunks() != 3 {
			t.Fatalf("%s: after append: %d chunks, want 3", what, b.NumChunks())
		}
		for i := range chunks {
			sameChunk(what+": after append", b, i)
		}
	}

	for cut := oldEnd; cut < len(whole); cut++ {
		check(fmt.Sprintf("truncated at %d of %d", cut, len(whole)), whole[:cut])
	}
	// Same length, wrong bytes: the whole record, its header past the marker,
	// its payload, the second half of its payload, the last stream byte.
	payload := int(cw.Chunks()[2].Offset)
	for _, from := range []int{oldEnd, oldEnd + 4, payload, (payload + len(whole)) / 2, len(whole) - 1} {
		torn := bytes.Clone(whole)
		for i := from; i < len(torn); i++ {
			torn[i] ^= 0xA5
		}
		check(fmt.Sprintf("scrambled from %d of %d", from, len(whole)), torn)
	}
}

func TestChunkWriterRejectsOutOfOrder(t *testing.T) {
	v, chunks, chunkParts := buildChunkedVideo(t, 2)
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: v.Params.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Append(chunks[1], chunkParts[1], 7); err == nil {
		t.Fatal("out-of-order chunk must be rejected")
	}
}

func TestOpenChunkArchiveRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE\x01aaaaaaaaaaaaaaaaaaaa"),
		"truncated": []byte("VACS"),
	}
	for name, data := range cases {
		if _, err := OpenArchiveBackend(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: must be rejected", name)
		}
	}
	// A valid header followed by a corrupt chunk marker must fail cleanly.
	v, chunks, chunkParts := buildChunkedVideo(t, 2)
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: v.Params.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	writeChunks(t, cw, chunks, chunkParts, 0)
	data := buf.Bytes()
	a, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// The second record's marker starts right after the first chunk's
	// payload; corrupting it must fail indexing cleanly.
	first, err := a.Info(0)
	if err != nil {
		t.Fatal(err)
	}
	data[first.Offset+first.Length] ^= 0xFF
	if _, err := OpenArchiveBackend(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt chunk marker must be rejected")
	}
}
