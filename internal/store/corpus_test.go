package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"sync"
	"testing"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/mlc"
	"videoapp/internal/synth"
	"videoapp/internal/testcorpus"
)

// The encoded corpus: every video the tests store and every container they
// read, damage or append to is encoded once per test binary. Entries are
// read-only; a test that changes one clones what it changes first, and one
// that leaves an entry changed fails in its cleanup.

// clip names a corpus entry: frames crew_like frames at w×h, coded under p.
type clip struct {
	w, h, frames int
	p            codec.Params
}

// entry is one encoded clip, whole and split per GOP.
type entry struct {
	v      *codec.Video
	an     *core.Analysis
	parts  []core.FramePartition // under the paper's assignment
	pixels int64
	// chunks[i] is GOP i as the streaming pipeline hands it to the archive
	// writer — a clone with chunk-local frame indices — and chunkParts[i]
	// its partition rows.
	chunks     []*codec.Video
	chunkParts [][]core.FramePartition
	archive    []byte // the VACS container of the chunks, one per record
}

// videoOf is the one-GOP video the round-trip tests store: ten 96×64
// frames.
func videoOf(t testing.TB) *entry {
	p := codec.DefaultParams()
	p.GOPSize, p.SearchRange = 10, 8
	return corpusOf(t, clip{96, 64, 10, p})
}

// archiveOf is a video of gops four-frame GOPs at 96×64 and its container
// of one GOP per chunk, the archive tests' input.
func archiveOf(t testing.TB, gops int) *entry {
	p := codec.DefaultParams()
	p.GOPSize, p.SearchRange = 4, 8
	return corpusOf(t, clip{96, 64, 4 * gops, p})
}

// ledgerOf is the unit of work of the performance ledger's serving and
// ingest workloads — one 6-frame closed GOP of 320×176 — and the one-chunk
// container holding it.
func ledgerOf(t testing.TB) *entry {
	p := codec.DefaultParams()
	p.GOPSize = 6
	return corpusOf(t, clip{320, 176, 6, p})
}

// corpusOf returns the entry of k, building it on first use, and fails t at
// its end if t left it changed.
func corpusOf(t testing.TB, k clip) *entry {
	t.Helper()
	return testcorpus.Of(t, k, buildEntry, (*entry).hash)
}

func buildEntry(t testing.TB, k clip) *entry {
	t.Helper()
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(k.w, k.h, k.frames))
	v, err := codec.EncodeParallelContext(context.Background(), seq, k.p, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	e := &entry{v: v, an: an, parts: an.Partition(core.PaperAssignment()), pixels: seq.PixelCount()}
	var buf bytes.Buffer
	cw, err := NewChunkWriter(&buf, ArchiveMeta{W: v.W, H: v.H, FPS: v.FPS, GOPSize: k.p.GOPSize, GOPsPerChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < len(v.Frames); s += k.p.GOPSize {
		end := min(s+k.p.GOPSize, len(v.Frames))
		sub := (&codec.Video{Params: k.p, W: v.W, H: v.H, FPS: v.FPS, Frames: v.Frames[s:end]}).Clone()
		sub.ShiftIndices(-s)
		e.chunks = append(e.chunks, sub)
		e.chunkParts = append(e.chunkParts, e.parts[s:end])
		if err := cw.Append(sub, e.parts[s:end], s); err != nil {
			t.Fatal(err)
		}
	}
	e.archive = buf.Bytes()
	return e
}

// hash writes every frame of the entry, whole and chunked, with the
// macroblock records and dependencies its container bytes do not hold, the
// analysis, the partitions and the container.
func (e *entry) hash(h *maphash.Hash) {
	for _, v := range append([]*codec.Video{e.v}, e.chunks...) {
		h.Write(codec.Marshal(v))
		for _, f := range v.Frames {
			fmt.Fprint(h, f.MBs, f.Deps)
		}
	}
	fmt.Fprint(h, e.an.Importance, e.an.CompImportance)
	pivots, err := core.MarshalPartitions(e.parts)
	if err != nil {
		panic(err)
	}
	h.Write(pivots)
	h.Write(e.archive)
}

// open opens container bytes held in memory, failing t if they do not open.
func open(t testing.TB, data []byte, opts ...ArchiveOption) *ChunkArchive {
	t.Helper()
	a, err := OpenArchiveBackend(bytes.NewReader(data), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// flipped is a copy of data with the bits of mask flipped at off.
func flipped(data []byte, off int64, mask byte) []byte {
	out := bytes.Clone(data)
	out[off] ^= mask
	return out
}

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

// sameChunk reports whether chunk i of a reads back strictly as chunk i of
// e was written: the same container bytes — headers and payloads — and one
// partition row per frame.
func (e *entry) sameChunk(a *ChunkArchive, i int) error {
	got, parts, err := readStrict(a, i)
	if err != nil {
		return fmt.Errorf("chunk %d: %w", i, err)
	}
	if !bytes.Equal(codec.Marshal(got), codec.Marshal(e.chunks[i])) || len(parts) != len(got.Frames) {
		return fmt.Errorf("chunk %d: %d frames and %d partition rows, not the %d frames written", i, len(got.Frames), len(parts), len(e.chunks[i].Frames))
	}
	return nil
}

// variableSystem is the paper's design: Table 1's variable correction on
// the default substrate.
func variableSystem(t testing.TB) *System {
	t.Helper()
	return systemOf(t, core.PaperAssignment())
}

func systemOf(t testing.TB, a core.ClassAssignment) *System {
	t.Helper()
	s, err := New(Config{Substrate: mlc.Default(), Assignment: a})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// route is one way StoreOpts drives a round trip: the caller's *rand.Rand
// (workers 0, serial), or a seed at a worker count.
type route struct{ workers int }

var (
	rngRoute   = []route{{0}}
	seedRoutes = []route{{1}, {2}, {8}}
)

func (r route) String() string {
	if r.workers == 0 {
		return "rng"
	}
	return fmt.Sprintf("seed/workers=%d", r.workers)
}

// opts is the route's StoreOpts for seed.
func (r route) opts(seed int64) StoreOpts {
	if r.workers == 0 {
		return StoreOpts{Rng: rand.New(rand.NewSource(seed))}
	}
	return StoreOpts{Seed: seed, Workers: r.workers}
}

// forRoutes runs body once per route, each as a subtest.
func forRoutes(t *testing.T, routes []route, body func(t *testing.T, r route)) {
	for _, r := range routes {
		t.Run(r.String(), func(t *testing.T) { body(t, r) })
	}
}

// The test doubles of the ReaderAt seam, one per behaviour a test needs; a
// writable primary that holds a container is a MemBackend.

// spyAt records every byte range read from r and counts the reads that
// report an EOF-class error.
type spyAt struct {
	r     io.ReaderAt
	mu    sync.Mutex
	reads [][2]int64 // [start, end) in call order
	eofs  int
}

func (s *spyAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := s.r.ReadAt(p, off)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > 0 {
		s.reads = append(s.reads, [2]int64{off, off + int64(n)})
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		s.eofs++
	}
	return n, err
}

// flakyAt fails the first failures attempts at every distinct offset with a
// transient non-EOF error, then serves cleanly.
type flakyAt struct {
	r        io.ReaderAt
	failures int
	mu       sync.Mutex
	seen     map[int64]int
}

var errFlaky = errors.New("transient device error")

func (f *flakyAt) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	if f.seen == nil {
		f.seen = map[int64]int{}
	}
	f.seen[off]++
	attempt := f.seen[off]
	f.mu.Unlock()
	if attempt <= f.failures {
		return 0, errFlaky
	}
	return f.r.ReadAt(p, off)
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

// rwsBuffer is a minimal in-memory io.ReadWriteSeeker + io.ReaderAt, the
// file an append reopens.
type rwsBuffer struct {
	data []byte
	pos  int64
}

func (b *rwsBuffer) ReadAt(p []byte, off int64) (int, error) { return readAtBytes(b.data, p, off) }

func (b *rwsBuffer) Read(p []byte) (int, error) {
	if b.pos >= int64(len(b.data)) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.pos:])
	b.pos += int64(n)
	return n, nil
}

func (b *rwsBuffer) Write(p []byte) (int, error) {
	if need := b.pos + int64(len(p)); need > int64(len(b.data)) {
		b.data = append(b.data, make([]byte, need-int64(len(b.data)))...)
	}
	n := copy(b.data[b.pos:], p)
	b.pos += int64(n)
	return n, nil
}

func (b *rwsBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		b.pos = off
	case io.SeekCurrent:
		b.pos += off
	case io.SeekEnd:
		b.pos = int64(len(b.data)) + off
	}
	return b.pos, nil
}
