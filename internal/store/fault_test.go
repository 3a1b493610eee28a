package store

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"videoapp/internal/codec"
	"videoapp/internal/faultio"
	"videoapp/internal/obs"
)

// fastPolicy keeps retry delays negligible so fault-path tests stay quick.
func fastPolicy() FaultPolicy {
	return FaultPolicy{RetryBackoff: time.Nanosecond, MaxBackoff: time.Microsecond}
}

// memAt is an in-memory ReaderAt+WriterAt, the writable primary used by
// the scrub-repair tests.
type memAt struct {
	data []byte
}

func (m *memAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memAt) WriteAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > int64(len(m.data)) {
		return 0, io.ErrShortWrite
	}
	return copy(m.data[off:], p), nil
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

// streamRegion returns the archive offset and length of chunk ci's first
// approximate stream, plus its scheme name — the degradable target for
// corruption tests.
func streamRegion(t *testing.T, a *ChunkArchive, ci int) (int64, int64, string) {
	t.Helper()
	rec := a.recs[ci]
	if len(rec.streams) == 0 {
		t.Fatal("chunk has no approximate streams")
	}
	return rec.info.Offset + rec.preciseLen + rec.pivotLen, rec.streams[0].bytes, rec.streams[0].name
}

// TestReadRetryRecoversTransient: a device failing the first attempt at
// every offset is fully absorbed by the default retry ladder, and the
// retries are visible in metrics.
func TestReadRetryRecoversTransient(t *testing.T) {
	data, _ := buildArchiveBytes(t, 2)
	a, err := OpenArchiveBackend(bytes.NewReader(data), WithFaultPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyAt{r: bytes.NewReader(data), failures: 1}
	a.r = flaky

	m := obs.NewMetrics()
	ctx := obs.With(context.Background(), m)
	for i := 0; i < a.NumChunks(); i++ {
		cr, err := a.ReadChunkContext(ctx, i)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if len(cr.Degraded) != 0 {
			t.Fatalf("chunk %d degraded %v under a transient-only fault", i, cr.Degraded)
		}
	}
	if got := m.Snapshot().CounterTotal(obs.CtrReadRetries); got == 0 {
		t.Fatal("no retries recorded despite transient failures")
	}
}

// TestRetriesDisabledFailsFast: MaxRetries < 0 turns the ladder off — the
// first transient failure surfaces as ErrReadFailed.
func TestRetriesDisabledFailsFast(t *testing.T) {
	data, _ := buildArchiveBytes(t, 1)
	pol := fastPolicy()
	pol.MaxRetries = -1
	a, err := OpenArchiveBackend(bytes.NewReader(data), WithFaultPolicy(pol))
	if err != nil {
		t.Fatal(err)
	}
	a.r = &flakyAt{r: bytes.NewReader(data), failures: 1}
	_, err = a.ReadChunkContext(context.Background(), 0)
	if !errors.Is(err, ErrReadFailed) {
		t.Fatalf("want ErrReadFailed, got %v", err)
	}
	if errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("device failure must not be classified as data corruption: %v", err)
	}
}

// TestStreamCorruptionDegrades: a bit flip inside an approximate stream is
// caught by the record CRC; the strict read reports ErrCorruptRecord while
// the context read degrades — zero-filled stream, decodable video, the
// scheme listed in Degraded and counted in metrics.
func TestStreamCorruptionDegrades(t *testing.T) {
	data, _ := buildArchiveBytes(t, 2)
	a, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	off, _, scheme := streamRegion(t, a, 0)
	bad := bytes.Clone(data)
	bad[off] ^= 0x40
	a, err = OpenArchiveBackend(bytes.NewReader(bad), WithFaultPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := readStrict(a, 0); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("strict read of damaged stream: want ErrCorruptRecord, got %v", err)
	}

	m := obs.NewMetrics()
	ctx := obs.With(context.Background(), m)
	cr, err := a.ReadChunkContext(ctx, 0)
	if err != nil {
		t.Fatalf("degraded read must not fail: %v", err)
	}
	if len(cr.Degraded) != 1 || cr.Degraded[0] != scheme {
		t.Fatalf("Degraded = %v, want [%s]", cr.Degraded, scheme)
	}
	if cr.Video == nil || len(cr.Video.Frames) == 0 {
		t.Fatal("degraded read returned no video")
	}
	if _, err := codec.DecodeContext(context.Background(), cr.Video, codec.DecodeOptions{}, 1); err != nil {
		t.Fatalf("degraded video must still decode: %v", err)
	}
	s := m.Snapshot()
	if s.Counter(obs.CtrDegradedStreams, scheme) != 1 {
		t.Fatalf("degraded-stream counter = %d, want 1", s.Counter(obs.CtrDegradedStreams, scheme))
	}
	if s.Counter(obs.CtrCRCFailures, scheme) == 0 {
		t.Fatal("CRC failure not counted")
	}

	// The other chunk is untouched and must read cleanly.
	if cr, err := a.ReadChunkContext(context.Background(), 1); err != nil || len(cr.Degraded) != 0 {
		t.Fatalf("clean chunk read: degraded=%v err=%v", cr.Degraded, err)
	}
}

// TestPreciseCorruptionHardFails: damage inside the precise region is on
// the wrong side of the reliability boundary — no degradation, hard
// ErrCorruptRecord from both read forms.
func TestPreciseCorruptionHardFails(t *testing.T) {
	data, _ := buildArchiveBytes(t, 1)
	a, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	info, _ := a.Info(0)
	bad := bytes.Clone(data)
	bad[info.Offset+1] ^= 0x01
	a, err = OpenArchiveBackend(bytes.NewReader(bad), WithFaultPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadChunkContext(context.Background(), 0); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("context read: want ErrCorruptRecord, got %v", err)
	}
	if _, _, err := readStrict(a, 0); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("strict read: want ErrCorruptRecord, got %v", err)
	}
}

// TestMidPayloadTruncationTyped pins the typed-error fix: a container cut
// inside the last chunk's payload indexes cleanly (the record header is
// intact) but the chunk read reports ErrCorruptRecord — never a raw
// io.ErrUnexpectedEOF.
func TestMidPayloadTruncationTyped(t *testing.T) {
	data, _ := buildArchiveBytes(t, 2)
	full, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	last, _ := full.Info(full.NumChunks() - 1)
	cut := data[:last.Offset+last.Length/2]
	a, err := OpenArchiveBackend(bytes.NewReader(cut), WithFaultPolicy(fastPolicy()))
	if err != nil {
		t.Fatalf("index over truncated payload must still open: %v", err)
	}
	_, _, err = readStrict(a, a.NumChunks()-1)
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("want ErrCorruptRecord, got %v", err)
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		t.Fatalf("raw EOF class must not surface: %v", err)
	}
	// Earlier chunks are intact and keep reading.
	if _, _, err := readStrict(a, 0); err != nil {
		t.Fatalf("intact chunk after truncation: %v", err)
	}
}

// TestMirrorRecoversCorruption: with a clean mirror attached, even the
// strict read survives primary-side corruption — the damaged region is
// refetched from the replica and verified.
func TestMirrorRecoversCorruption(t *testing.T) {
	data, _ := buildArchiveBytes(t, 1)
	a, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	off, _, _ := streamRegion(t, a, 0)
	bad := bytes.Clone(data)
	bad[off] ^= 0x80
	a, err = OpenArchiveBackend(bytes.NewReader(bad),
		WithFaultPolicy(fastPolicy()), WithMirror(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	ctx := obs.With(context.Background(), m)
	cr, err := a.ReadChunkContext(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Degraded) != 0 {
		t.Fatalf("mirror should have recovered the stream, degraded %v", cr.Degraded)
	}
	if m.Snapshot().CounterTotal(obs.CtrMirrorReads) == 0 {
		t.Fatal("mirror read not counted")
	}
}

// rwsBuffer is a minimal in-memory io.ReadWriteSeeker + io.ReaderAt for
// append tests.
type rwsBuffer struct {
	data []byte
	pos  int64
}

func (b *rwsBuffer) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b.data)) {
		return 0, io.EOF
	}
	n := copy(p, b.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (b *rwsBuffer) Read(p []byte) (int, error) {
	if b.pos >= int64(len(b.data)) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.pos:])
	b.pos += int64(n)
	return n, nil
}

func (b *rwsBuffer) Write(p []byte) (int, error) {
	need := b.pos + int64(len(p))
	if need > int64(len(b.data)) {
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

// TestScrubRepairsFromMirror: scrub finds the damaged region, rewrites it
// from the mirror, re-verifies, and leaves the primary byte-identical to
// the clean container; a second pass is clean.
func TestScrubRepairsFromMirror(t *testing.T) {
	data, _ := buildArchiveBytes(t, 2)
	clean := bytes.Clone(data)
	probe, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	off, _, scheme := streamRegion(t, probe, 1)
	primary := &memAt{data: bytes.Clone(data)}
	primary.data[off] ^= 0x20

	a, err := OpenArchiveBackend(primary,
		WithFaultPolicy(fastPolicy()), WithMirror(bytes.NewReader(clean)))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	rep, err := a.Scrub(obs.With(context.Background(), m))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged != 1 || rep.Repaired != 1 || !rep.Healthy() {
		t.Fatalf("report %+v, want 1 damaged, 1 repaired", rep)
	}
	if h := rep.Chunks[1]; len(h.Damaged) != 1 || h.Damaged[0] != scheme || !h.Healthy() {
		t.Fatalf("chunk 1 health %+v, want damaged=[%s] repaired", h, scheme)
	}
	if !bytes.Equal(primary.data, clean) {
		t.Fatal("scrub did not restore the primary to the clean bytes")
	}
	if m.Snapshot().CounterTotal(obs.CtrScrubRepairs) != 1 {
		t.Fatal("scrub repair not counted")
	}

	rep, err = a.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged != 0 {
		t.Fatalf("second pass found damage: %+v", rep)
	}
}

// TestScrubWithoutMirrorReports: no mirror means no repairs — the damage
// is reported and the report is unhealthy.
func TestScrubWithoutMirrorReports(t *testing.T) {
	data, _ := buildArchiveBytes(t, 1)
	probe, err := OpenArchiveBackend(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	off, _, _ := streamRegion(t, probe, 0)
	bad := bytes.Clone(data)
	bad[off] ^= 0x10
	a, err := OpenArchiveBackend(bytes.NewReader(bad), WithFaultPolicy(fastPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged != 1 || rep.Repaired != 0 || rep.Healthy() {
		t.Fatalf("report %+v, want 1 damaged, 0 repaired", rep)
	}
}

// TestFaultioIntegration: the archive read path rides out a deterministic
// faultio device profile — transient errors and short reads absorbed by
// retries, persistent corruption caught by CRC and degraded — and two runs
// over the same seed behave identically.
func TestFaultioIntegration(t *testing.T) {
	data, _ := buildArchiveBytes(t, 3)

	run := func() ([]int, int64) {
		fr := faultio.Wrap(NewSnapshotBackend(data), faultio.Profile{
			Seed: 42, TransientRate: 0.05, ShortRate: 0.02, CorruptRate: 0.002,
		})
		pol := fastPolicy()
		pol.MaxRetries = 8
		a, err := OpenArchiveBackend(fr, WithFaultPolicy(pol))
		if err != nil {
			t.Fatal(err)
		}
		m := obs.NewMetrics()
		ctx := obs.With(context.Background(), m)
		var degraded []int
		for i := 0; i < a.NumChunks(); i++ {
			cr, err := a.ReadChunkContext(ctx, i)
			if err != nil {
				t.Fatalf("chunk %d under faultio: %v", i, err)
			}
			degraded = append(degraded, len(cr.Degraded))
		}
		return degraded, m.Snapshot().CounterTotal(obs.CtrReadRetries)
	}

	deg1, retries1 := run()
	deg2, retries2 := run()
	for i := range deg1 {
		if deg1[i] != deg2[i] {
			t.Fatalf("chunk %d degradation differs between identical-seed runs: %d vs %d", i, deg1[i], deg2[i])
		}
	}
	if retries1 != retries2 {
		t.Fatalf("retry counts differ between identical-seed runs: %d vs %d", retries1, retries2)
	}
}
