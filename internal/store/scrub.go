package store

import (
	"context"
	"fmt"
	"io"

	"videoapp/internal/obs"
)

// ChunkHealth is the scrub verdict for one chunk: which of its regions
// (the precise bytes, the pivot tables, and each approximate stream, by
// label) could not be read and verified, and which of those the scrubber
// repaired in place from the mirror.
type ChunkHealth struct {
	// Index is the chunk's position in the archive.
	Index int
	// Regions is the number of regions examined (2 + stream count).
	Regions int
	// Damaged lists region labels that failed verification (or could not
	// be read at all) from the primary after the policy's retries.
	Damaged []string
	// Repaired lists the subset of Damaged that was rewritten from a
	// verified mirror copy and re-verified on the primary.
	Repaired []string
}

// Healthy reports whether every damaged region was repaired.
func (h ChunkHealth) Healthy() bool { return len(h.Damaged) == len(h.Repaired) }

// ScrubReport summarizes one full scrub pass over the archive.
type ScrubReport struct {
	// Chunks holds one entry per chunk, in index order.
	Chunks []ChunkHealth
	// Damaged and Repaired are the region totals across all chunks.
	Damaged, Repaired int
}

// Healthy reports whether the archive left the scrub with no unrepaired
// damage.
func (r ScrubReport) Healthy() bool { return r.Damaged == r.Repaired }

// Scrub proactively walks every record in the archive, reading and
// verifying each region under the archive's fault policy — the background
// counterpart of the verify-on-read path, so damage is found before a
// client asks for the chunk.
//
// When a mirror is configured (WithMirror) and the primary also implements
// io.WriterAt, scrub repairs damaged regions in place: it fetches the
// region from the mirror, verifies it against the record's checksum,
// writes it back to the primary, and re-reads to confirm the repair took.
// Regions that stay damaged are reported but do not stop the pass; ctx
// cancellation does.
func (a *ChunkArchive) Scrub(ctx context.Context) (ScrubReport, error) {
	if a.closed.Load() {
		return ScrubReport{}, fmt.Errorf("store: scrub: %w", ErrArchiveClosed)
	}
	o := obs.From(ctx)
	defer obs.StartSpan(o, obs.StageScrub).End()
	w, canRepair := a.r.(io.WriterAt)
	if a.mirror == nil {
		canRepair = false
	}

	var rep ScrubReport
	for _, rec := range a.recs {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		h := ChunkHealth{Index: rec.info.Index, Regions: 2 + len(rec.streams)}
		for _, reg := range a.regions(rec) {
			err := a.readRegion(ctx, o, nil, make([]byte, reg.n), reg.off, reg.crc, reg.label)
			if err == nil {
				continue
			}
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			h.Damaged = append(h.Damaged, reg.label)
			if canRepair && a.repairRegion(ctx, o, w, reg) {
				h.Repaired = append(h.Repaired, reg.label)
				o.Counter(obs.CtrScrubRepairs, "", 1)
			}
		}
		rep.Damaged += len(h.Damaged)
		rep.Repaired += len(h.Repaired)
		rep.Chunks = append(rep.Chunks, h)
	}
	return rep, nil
}

// region locates one verifiable span of a record.
type region struct {
	label string
	off   int64
	n     int64
	crc   uint32
}

// regions enumerates a record's verifiable spans in payload order.
func (a *ChunkArchive) regions(rec chunkRec) []region {
	regs := make([]region, 0, 2+len(rec.streams))
	off := rec.info.Offset
	regs = append(regs, region{"precise", off, rec.preciseLen, rec.preciseCRC})
	off += rec.preciseLen
	regs = append(regs, region{"pivots", off, rec.pivotLen, rec.pivotCRC})
	off += rec.pivotLen
	for _, rs := range rec.streams {
		regs = append(regs, region{rs.name, off, rs.bytes, rs.crc})
		off += rs.bytes
	}
	return regs
}

// repairRegion fetches reg from the mirror, verifies it, writes it back to
// the primary and re-reads to confirm. It reports whether the primary now
// holds a verified copy.
func (a *ChunkArchive) repairRegion(ctx context.Context, o obs.Observer, w io.WriterAt, reg region) bool {
	buf := make([]byte, reg.n)
	if _, err := readFullAt(a.mirror, buf, reg.off); err != nil || !verified(buf, reg.crc) {
		return false
	}
	o.Counter(obs.CtrMirrorReads, "", 1)
	if _, err := w.WriteAt(buf, reg.off); err != nil {
		return false
	}
	// Re-read through the faulty primary path to confirm the repair took;
	// one verified read is enough (persistent damage reproduces).
	back := make([]byte, reg.n)
	for attempt := 0; attempt <= a.policy.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, a.policy, reg.off, attempt); err != nil {
				return false
			}
		}
		if _, err := readFullAt(a.r, back, reg.off); err == nil && verified(back, reg.crc) {
			return true
		}
	}
	return false
}
