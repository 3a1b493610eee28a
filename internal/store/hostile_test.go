package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"videoapp/internal/bch"
	"videoapp/internal/bitio"
	"videoapp/internal/codec"
	"videoapp/internal/core"
)

// fabricatedPrecise hand-writes a precise region (codec.MarshalPrecise
// layout) of n frames that each declare a payload of payloadLen bytes —
// something the marshaller itself can only produce from payloads that
// exist.
func fabricatedPrecise(n int, payloadLen uint32) []byte {
	w := bitio.NewWriter()
	for _, b := range []byte("VAPP") {
		w.WriteBits(uint64(b), 8)
	}
	w.WriteBits(1, 8)
	w.WriteUE(64)
	w.WriteUE(48)
	w.WriteUE(30)
	p := codec.DefaultParams()
	w.WriteUE(uint32(p.CRF))
	w.WriteUE(uint32(p.GOPSize))
	w.WriteUE(uint32(p.BFrames))
	w.WriteBool(p.BReference)
	w.WriteBits(uint64(p.Entropy), 2)
	w.WriteUE(uint32(p.SearchRange))
	w.WriteBool(true) // adaptive quantization
	w.WriteUE(uint32(p.SlicesPerFrame))
	w.WriteBool(p.Deblock)
	w.WriteBool(p.HalfPel)
	w.WriteUE(uint32(n))
	w.AlignByte()
	out := bytes.Clone(w.Bytes())
	for i := 0; i < n; i++ {
		h := bitio.NewWriter()
		h.WriteBits(0, 2) // I-frame
		h.WriteUE(uint32(i))
		h.WriteUE(uint32(i))
		h.WriteBits(26, 6)
		h.WriteUE(0) // no forward reference
		h.WriteUE(0) // no backward reference
		h.WriteUE(payloadLen)
		h.WriteUE(0) // no slice table
		h.AlignByte()
		out = binary.BigEndian.AppendUint32(out, uint32(h.Len()))
		out = append(out, h.Bytes()...)
	}
	return out
}

// fabricatedArchive wraps a precise region into a one-chunk container whose
// checksums all verify: pivot tables for n frames and one stream of
// streamBytes declared bytes, of which the container holds only those in
// stream.
func fabricatedArchive(t *testing.T, n int, precise []byte, streamBytes uint32, stream []byte) []byte {
	t.Helper()
	parts := make([]core.FramePartition, n)
	for f := range parts {
		parts[f] = core.FramePartition{Frame: f, Pivots: []core.Pivot{{Bit: 0, Scheme: bch.SchemeNone}}}
	}
	pivots, err := core.MarshalPartitions(parts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := NewChunkWriter(&buf, ArchiveMeta{W: 64, H: 48, FPS: 30, GOPSize: n, GOPsPerChunk: 1}); err != nil {
		t.Fatal(err)
	}
	rec := append([]byte(nil), chunkMarker[:]...)
	rec = appendU32(rec, 0)
	rec = appendU32(rec, uint32(n))
	rec = appendU32(rec, uint32(len(precise)))
	rec = appendU32(rec, uint32(len(pivots)))
	rec = appendU32(rec, crc32.Checksum(precise, castagnoli))
	rec = appendU32(rec, crc32.Checksum(pivots, castagnoli))
	name := bch.SchemeNone.Name
	rec = append(rec, 1, byte(len(name)))
	rec = append(rec, name...)
	rec = binary.BigEndian.AppendUint64(rec, uint64(streamBytes)*8)
	rec = appendU32(rec, streamBytes)
	rec = appendU32(rec, crc32.Checksum(stream, castagnoli))
	buf.Write(rec)
	buf.Write(precise)
	buf.Write(pivots)
	buf.Write(stream)
	return buf.Bytes()
}

// allocatedBy reports the bytes allocated while f runs.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadChunkBoundsDeclaredPayload is the regression test for the
// allocate-what-the-header-says bug: a record whose checksums all verify but
// whose frame headers declare 6 × 1 GiB of payload, over a stream of eight
// bytes, made UnmarshalPrecise reserve and zero six gigabytes. The read must
// fail with ErrCorruptRecord having allocated next to nothing.
func TestReadChunkBoundsDeclaredPayload(t *testing.T) {
	const frames = 6
	// The fabricated layout is the real one: honest lengths parse and read.
	honest := fabricatedArchive(t, frames, fabricatedPrecise(frames, 1), frames, make([]byte, frames))
	a, err := OpenArchiveBackend(bytes.NewReader(honest))
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err := readStrict(a, 0); err != nil || len(v.Frames) != frames {
		t.Fatalf("honest fabricated record: %v", err)
	}

	hostile := fabricatedArchive(t, frames, fabricatedPrecise(frames, 1<<30), 8, make([]byte, 8))
	if a, err = OpenArchiveBackend(bytes.NewReader(hostile)); err != nil {
		t.Fatal(err)
	}
	var rerr error
	n := allocatedBy(func() { _, rerr = a.ReadChunkContext(context.Background(), 0) })
	if !errors.Is(rerr, ErrCorruptRecord) {
		t.Fatalf("6 × 1 GiB declared over an 8-byte stream: got %v, want ErrCorruptRecord", rerr)
	}
	if n >= 1<<20 {
		t.Fatalf("refusing the record allocated %d bytes, want < 1 MiB", n)
	}
}

// TestReadChunkProbesHugeRecord covers the same hole one layer down: a
// record header may declare a multi-gigabyte region in a container of a few
// hundred bytes. The read finds the container too short before it allocates
// the record's buffer.
func TestReadChunkProbesHugeRecord(t *testing.T) {
	const frames = 2
	hostile := fabricatedArchive(t, frames, fabricatedPrecise(frames, 1), 3<<30, make([]byte, 8))
	a, err := OpenArchiveBackend(bytes.NewReader(hostile))
	if err != nil {
		t.Fatal(err)
	}
	var rerr error
	n := allocatedBy(func() { _, rerr = a.ReadChunkContext(context.Background(), 0) })
	if !errors.Is(rerr, ErrCorruptRecord) {
		t.Fatalf("3 GiB stream declared in a %d-byte container: got %v, want ErrCorruptRecord", len(hostile), rerr)
	}
	if n >= 1<<20 {
		t.Fatalf("refusing the record allocated %d bytes, want < 1 MiB", n)
	}
	// With a mirror that is just as short the verdict is the same.
	if a, err = OpenArchiveBackend(bytes.NewReader(hostile), WithMirror(bytes.NewReader(hostile))); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadChunkContext(context.Background(), 0); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("with an equally short mirror: got %v, want ErrCorruptRecord", err)
	}
}

// TestAppendRefusesUncoveredPayload pins the writer to the reader's bound: a
// layout that leaves payload bits outside every stream would produce a
// record ReadChunkContext refuses, so Append refuses it first.
func TestAppendRefusesUncoveredPayload(t *testing.T) {
	v := archiveOf(t, 2).chunks[0]
	parts := make([]core.FramePartition, len(v.Frames))
	for f := range parts {
		// The only pivot sits far inside the payload: the bits before it
		// belong to no stream.
		parts[f] = core.FramePartition{Frame: f, Pivots: []core.Pivot{{Bit: v.Frames[f].PayloadBits() / 2, Scheme: bch.SchemeNone}}}
	}
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: v.Params.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	if err := cw.Append(v, parts, 0); err == nil {
		t.Fatal("Append accepted a layout that covers half of the payload")
	}
	if buf.Len() != before {
		t.Fatal("a refused Append wrote to the container")
	}
}

// TestReadChunkAllocationBudget pins what the single record buffer, the
// payload slab and the in-place merge achieve on the ledger's chunk (6
// frames of 320×176): 20 allocations per read, down from 61, and under
// 24 KB, down from 33 KB — the record's own ≈ 10 KB twice (read buffer and
// payloads) plus the frame table, pivot tables and slice tables.
func TestReadChunkAllocationBudget(t *testing.T) {
	data := ledgerOf(t).archive
	a := open(t, data)
	ctx := context.Background()
	read := func() {
		if _, err := a.ReadChunkContext(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, read)
	const reads = 50
	size := allocatedBy(func() {
		for i := 0; i < reads; i++ {
			read()
		}
	}) / reads
	t.Logf("%.0f allocations, %d bytes per read of a %d-byte container", allocs, size, len(data))
	if allocs > 22 {
		t.Fatalf("%.0f allocations per read, budget 22", allocs)
	}
	if limit := uint64(2*len(data) + 4096); size > limit {
		t.Fatalf("%d bytes allocated per read, budget %d (twice the container + 4 KB)", size, limit)
	}
}

// TestOpenRejectsFieldsPastInt32 holds every 32-bit field of the container
// headers to one verdict at both int widths: past math.MaxInt32 a field
// would be a negative int on a 32-bit platform and a positive one on a
// 64-bit one, so open refuses it on both. So it does a frame total past
// math.MaxInt32, which 2049 records of 1<<20 frames reach in 59 KB.
func TestOpenRejectsFieldsPastInt32(t *testing.T) {
	valid := fabricatedArchive(t, 2, fabricatedPrecise(2, 1), 2, make([]byte, 2))
	if _, err := OpenArchiveBackend(bytes.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{}
	for name, at := range map[string]int{"W": 5, "H": 9, "FPS": 13, "GOPSize": 17, "GOPsPerChunk": 21,
		"FirstFrame": archiveHeaderLen + 4, "Frames": archiveHeaderLen + 8} {
		bad := bytes.Clone(valid)
		binary.BigEndian.PutUint32(bad[at:], 1<<31)
		cases[name] = bad
	}
	total := bytes.Clone(valid[:archiveHeaderLen])
	for i := range uint32(2049) {
		total = append(total, chunkMarker[:]...)
		total = appendU32(appendU32(total, i<<20), 1<<20)
		total = append(total, make([]byte, chunkFixedLen-12)...) // empty regions, no streams
	}
	cases["frame total"] = total
	for name, data := range cases {
		if _, err := OpenArchiveBackend(bytes.NewReader(data)); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s past 2^31-1: got %v, want ErrCorruptRecord", name, err)
		}
	}
}
