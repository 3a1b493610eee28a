package store

import (
	"bytes"
	"context"
	"errors"
	"io"
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

// streamRegion returns the offset of the first approximate stream of chunk
// ci in e's container, plus its scheme name — the degradable target for
// corruption tests.
func streamRegion(t *testing.T, e *entry, ci int) (int64, string) {
	t.Helper()
	rec := open(t, e.archive).recs[ci]
	if len(rec.streams) == 0 {
		t.Fatal("chunk has no approximate streams")
	}
	return rec.info.Offset + rec.preciseLen + rec.pivotLen, rec.streams[0].name
}

// TestReadRetryRecoversTransient: a device failing the first attempt at
// every offset is fully absorbed by the default retry ladder, and the
// retries are visible in metrics.
func TestReadRetryRecoversTransient(t *testing.T) {
	data := archiveOf(t, 2).archive
	a := open(t, data, WithFaultPolicy(fastPolicy()))
	a.r = &flakyAt{r: bytes.NewReader(data), failures: 1}

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
	data := archiveOf(t, 2).archive
	pol := fastPolicy()
	pol.MaxRetries = -1
	a := open(t, data, WithFaultPolicy(pol))
	a.r = &flakyAt{r: bytes.NewReader(data), failures: 1}
	_, err := a.ReadChunkContext(context.Background(), 0)
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
	e := archiveOf(t, 2)
	off, scheme := streamRegion(t, e, 0)
	a := open(t, flipped(e.archive, off, 0x40), WithFaultPolicy(fastPolicy()))

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
	if err := e.sameChunk(a, 1); err != nil {
		t.Fatalf("clean chunk read: %v", err)
	}
}

// TestPreciseCorruptionHardFails: damage inside the precise region is on
// the wrong side of the reliability boundary — no degradation, hard
// ErrCorruptRecord from both read forms.
func TestPreciseCorruptionHardFails(t *testing.T) {
	e := archiveOf(t, 2)
	info, _ := open(t, e.archive).Info(0)
	a := open(t, flipped(e.archive, info.Offset+1, 0x01), WithFaultPolicy(fastPolicy()))
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
	e := archiveOf(t, 2)
	last, _ := open(t, e.archive).Info(1)
	a := open(t, e.archive[:last.Offset+last.Length/2], WithFaultPolicy(fastPolicy()))
	_, _, err := readStrict(a, a.NumChunks()-1)
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("want ErrCorruptRecord, got %v", err)
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		t.Fatalf("raw EOF class must not surface: %v", err)
	}
	// Earlier chunks are intact and keep reading.
	if err := e.sameChunk(a, 0); err != nil {
		t.Fatalf("intact chunk after truncation: %v", err)
	}
}

// TestMirrorRecoversCorruption: with a clean mirror attached, even the
// strict read survives primary-side corruption — the damaged region is
// refetched from the replica and verified.
func TestMirrorRecoversCorruption(t *testing.T) {
	e := archiveOf(t, 2)
	off, _ := streamRegion(t, e, 0)
	a := open(t, flipped(e.archive, off, 0x80), WithFaultPolicy(fastPolicy()), WithMirror(bytes.NewReader(e.archive)))
	m := obs.NewMetrics()
	cr, err := a.ReadChunkContext(obs.With(context.Background(), m), 0)
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

// TestScrubRepairsFromMirror: scrub finds the damaged region, rewrites it
// from the mirror, re-verifies, and leaves the primary byte-identical to
// the clean container; a second pass is clean.
func TestScrubRepairsFromMirror(t *testing.T) {
	e := archiveOf(t, 2)
	off, scheme := streamRegion(t, e, 1)
	primary := NewMemBackend(flipped(e.archive, off, 0x20))
	a, err := OpenArchiveBackend(primary, WithFaultPolicy(fastPolicy()), WithMirror(bytes.NewReader(e.archive)))
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
	if !bytes.Equal(primary.Bytes(), e.archive) {
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
	e := archiveOf(t, 2)
	off, _ := streamRegion(t, e, 0)
	a := open(t, flipped(e.archive, off, 0x10), WithFaultPolicy(fastPolicy()))
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
	data := archiveOf(t, 3).archive

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
