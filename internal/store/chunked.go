package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"

	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/obs"
)

// Chunked archive container: the at-rest form of a streamed video, laid out
// so that any single closed-GOP chunk can be read, decoded and round-tripped
// without loading the rest — the unit a video server ships to clients.
//
//	magic "VACS" | version (2) | W | H | FPS | GOPSize | GOPsPerChunk
//	per chunk:   marker "CHNK" | first frame | frame count
//	             | precise len | pivot len
//	             | precise CRC | pivot CRC
//	             | stream count
//	             | per stream: name len | name | bit count | byte len
//	             |             stream CRC
//	             | precise bytes | pivot bytes | stream bytes
//
// Each chunk record is self-describing and the payload lengths are all in
// its fixed-position header, so a reader indexes the whole container by
// hopping record headers (seeking past payloads) and then reads exactly
// one chunk's bytes to serve it. There is no trailing index to rewrite,
// which is what makes the container append-on-write: new chunks go at the
// end, concurrent readers keep working from their existing index.
//
// Every region (precise, pivots, each stream) carries a CRC-32C, stored in
// the record header — i.e. in the precisely-kept part of the container — so
// the read path can tell exactly which region a substrate error landed in:
// damage to an approximate stream is detected, isolated and degradable,
// while damage to the precise region is a hard data error. The version byte
// is checked at open and any other value (the checksum-less version 1
// included) is rejected with ErrCorruptRecord: a reader that cannot verify
// a container must not serve it.
//
// Within a chunk the split is the paper's reliability boundary, and this
// record is its one at-rest implementation: a precise region — everything
// that must never be wrong: headers with payload placeholders (MarshalPrecise
// form) plus the §4.4 pivot tables, a minor share of the bytes — and one
// approximate stream per ECC scheme (§5.3), each destined for cells protected
// at that scheme's level. Reading is the exact inverse while the streams are
// intact; damaged stream bits flow back into the corresponding payload bits,
// which is the approximation model the experiments measure.

var chunkedMagic = [4]byte{'V', 'A', 'C', 'S'}
var chunkMarker = [4]byte{'C', 'H', 'N', 'K'}

const chunkedVersion = 2

// castagnoli is the CRC-32C table shared by the writer and the verifier.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ArchiveMeta is the sequence-level header of a chunked archive.
type ArchiveMeta struct {
	// W, H, FPS describe the coded sequence.
	W, H, FPS int
	// GOPSize is the encoder's I-frame interval; chunk boundaries are
	// multiples of it, which is what makes chunks independently decodable.
	GOPSize int
	// GOPsPerChunk is the nominal chunk granularity (the last chunk may be
	// shorter).
	GOPsPerChunk int
}

// ChunkInfo locates one chunk inside the container.
type ChunkInfo struct {
	// Index is the chunk's position in append order.
	Index int
	// FirstFrame and Frames give the chunk's coded-frame span in the whole
	// video.
	FirstFrame, Frames int
	// Offset and Length delimit the chunk's payload bytes (precise region,
	// pivot tables and approximate streams) within the container.
	Offset, Length int64
}

// ChunkWriter appends chunks to an archive container. It only ever writes
// forward — the header goes out once at construction and every Append emits
// one self-describing record — so it runs against any io.Writer, including
// a network connection or an append-only log.
type ChunkWriter struct {
	w      io.Writer
	meta   ArchiveMeta
	off    int64
	chunks []ChunkInfo
	frames int
}

// NewChunkWriter writes the container header and returns a writer ready to
// append chunks.
func NewChunkWriter(w io.Writer, meta ArchiveMeta) (*ChunkWriter, error) {
	if meta.W <= 0 || meta.H <= 0 || meta.GOPSize < 1 || meta.GOPsPerChunk < 1 {
		return nil, fmt.Errorf("store: invalid archive meta %+v", meta)
	}
	hdr := make([]byte, 0, archiveHeaderLen)
	hdr = append(hdr, chunkedMagic[:]...)
	hdr = append(hdr, chunkedVersion)
	hdr = appendU32(hdr, uint32(meta.W))
	hdr = appendU32(hdr, uint32(meta.H))
	hdr = appendU32(hdr, uint32(meta.FPS))
	hdr = appendU32(hdr, uint32(meta.GOPSize))
	hdr = appendU32(hdr, uint32(meta.GOPsPerChunk))
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("store: writing archive header: %w", err)
	}
	return &ChunkWriter{w: w, meta: meta, off: int64(len(hdr))}, nil
}

// Meta returns the sequence-level header.
func (cw *ChunkWriter) Meta() ArchiveMeta { return cw.meta }

// Chunks lists the records appended so far.
func (cw *ChunkWriter) Chunks() []ChunkInfo { return cw.chunks }

// Frames returns the total frame count appended so far.
func (cw *ChunkWriter) Frames() int { return cw.frames }

// Append writes one chunk: a closed-GOP video (frame indices chunk-local)
// and its partition layout. firstFrame is the chunk's position in the whole
// video; chunks must arrive in order, each starting where the previous one
// ended.
func (cw *ChunkWriter) Append(v *codec.Video, parts []core.FramePartition, firstFrame int) error {
	if firstFrame != cw.frames {
		return fmt.Errorf("store: chunk starts at frame %d, want %d (chunks must append in order)", firstFrame, cw.frames)
	}
	if len(v.Frames) == 0 {
		return fmt.Errorf("store: empty chunk")
	}
	ss, err := core.SplitStreams(v, parts)
	if err != nil {
		return err
	}
	pivots, err := core.MarshalPartitions(parts)
	if err != nil {
		return err
	}
	precise := codec.MarshalPrecise(v)

	names := ss.SchemeNames()
	// The reader bounds the payload it allocates by the stream bytes of the
	// record (ReadChunkContext); a layout whose pivots leave payload bits
	// outside every stream would write a record no reader accepts.
	var streamBytes int64
	for _, name := range names {
		streamBytes += int64(len(ss.Streams[name]))
	}
	if payload := v.TotalPayloadBits() / 8; payload > streamBytes {
		return fmt.Errorf("store: partition layout covers %d of %d payload bytes", streamBytes, payload)
	}
	rec := make([]byte, 0, 64)
	rec = append(rec, chunkMarker[:]...)
	rec = appendU32(rec, uint32(firstFrame))
	rec = appendU32(rec, uint32(len(v.Frames)))
	rec = appendU32(rec, uint32(len(precise)))
	rec = appendU32(rec, uint32(len(pivots)))
	rec = appendU32(rec, crc32.Checksum(precise, castagnoli))
	rec = appendU32(rec, crc32.Checksum(pivots, castagnoli))
	rec = append(rec, byte(len(names)))
	for _, name := range names {
		if len(name) > 255 {
			return fmt.Errorf("store: scheme name %q too long", name)
		}
		rec = append(rec, byte(len(name)))
		rec = append(rec, name...)
		rec = binary.BigEndian.AppendUint64(rec, uint64(ss.Bits[name]))
		rec = appendU32(rec, uint32(len(ss.Streams[name])))
		rec = appendU32(rec, crc32.Checksum(ss.Streams[name], castagnoli))
	}
	if _, err := cw.w.Write(rec); err != nil {
		return fmt.Errorf("store: writing chunk header: %w", err)
	}
	payloadOff := cw.off + int64(len(rec))
	var payload int64
	for _, blob := range [][]byte{precise, pivots} {
		if _, err := cw.w.Write(blob); err != nil {
			return fmt.Errorf("store: writing chunk: %w", err)
		}
		payload += int64(len(blob))
	}
	for _, name := range names {
		if _, err := cw.w.Write(ss.Streams[name]); err != nil {
			return fmt.Errorf("store: writing chunk stream %q: %w", name, err)
		}
		payload += int64(len(ss.Streams[name]))
	}
	cw.chunks = append(cw.chunks, ChunkInfo{
		Index: len(cw.chunks), FirstFrame: firstFrame, Frames: len(v.Frames),
		Offset: payloadOff, Length: payload,
	})
	cw.off = payloadOff + payload
	cw.frames += len(v.Frames)
	return nil
}

// chunkRec is the reader-side index entry for one chunk.
type chunkRec struct {
	info       ChunkInfo
	preciseLen int64
	pivotLen   int64
	preciseCRC uint32
	pivotCRC   uint32
	streams    []streamRec
}

type streamRec struct {
	name  string
	bits  int64
	bytes int64
	crc   uint32
}

// ChunkArchive is the random-access reader over a chunked container,
// backed by an io.ReaderAt so that it is safe for unbounded concurrent use:
// OpenArchiveBackend builds the index from the record headers alone —
// payload bytes are hopped over, never read — and ReadChunkContext then
// touches exactly one chunk's bytes, sharing no cursor with other readers.
// Every method except Close may be called from any number of goroutines
// simultaneously.
//
// The archive is the unit of fault tolerance: reads retry transient
// failures under the configured FaultPolicy, verify per-region checksums,
// fall back to the mirror reader when one is configured (WithMirror), and
// degrade gracefully when only approximate streams are damaged. Scrub walks every record proactively and repairs
// damage in place from the mirror.
type ChunkArchive struct {
	r      io.ReaderAt
	mirror io.ReaderAt
	policy FaultPolicy
	meta   ArchiveMeta
	recs   []chunkRec
	closed atomic.Bool
}

// ArchiveOption configures a ChunkArchive at open time.
type ArchiveOption func(*ChunkArchive)

// WithFaultPolicy sets the archive's fault policy — retry counts and backoff
// for the open-time index scan, every read and every scrub. It is the only
// way a policy reaches an archive, a served one included (in
// serve.ArchiveSpec.Options, where Policy also sets the tenant's circuit
// breaker); without it the defaults apply.
func WithFaultPolicy(p FaultPolicy) ArchiveOption {
	return func(a *ChunkArchive) { a.policy = p }
}

// Policy returns the fault policy the archive runs under, resolved once at
// open. Do not Resolve it again: a second pass reads a resolved "retries
// off" (MaxRetries 0) as "unset" and turns the default retries back on.
func (a *ChunkArchive) Policy() FaultPolicy { return a.policy }

// WithMirror attaches a mirror reader holding a replica of the same
// container bytes. When a region read from the primary exhausts its
// retries (I/O failure or checksum mismatch), the read path fetches the
// region from the mirror instead; Scrub additionally repairs the primary
// in place from the mirror when the primary also implements io.WriterAt.
func WithMirror(r io.ReaderAt) ArchiveOption {
	return func(a *ChunkArchive) { a.mirror = r }
}

// archiveHeaderLen is the fixed container header size (magic, version and
// the five ArchiveMeta fields).
const archiveHeaderLen = 25

// A chunk record header is chunkFixedLen bytes (marker, first frame, frame
// count, precise and pivot lengths, their two CRCs, stream count) followed
// by one entry per stream: a length-prefixed name plus streamEntryLen bytes
// (bit count, byte length, CRC).
const (
	chunkFixedLen  = 29
	streamEntryLen = 16
)

// OpenArchiveBackend indexes a container produced by ChunkWriter, stored on
// any io.ReaderAt — a Backend, an os.File, a bytes.Reader. The returned
// archive performs all reads through r's positionless ReadAt, so concurrent
// ReadChunkContext calls never contend on a seek cursor. When r is a
// Backend (or any io.WriterAt) Scrub repairs go through its WriteAt —
// read-only backends report the damage unrepaired instead — and the caller
// closes it after the archive; compose backends freely, a faultio decorator
// over a MemBackend behaves exactly like one over a file. Structural damage
// — a zero-length or truncated file, bad magic, a damaged chunk header — is
// reported as an error wrapping ErrCorruptRecord; underlying I/O failures
// are wrapped with %w and match with errors.Is.
func OpenArchiveBackend(r io.ReaderAt, opts ...ArchiveOption) (*ChunkArchive, error) {
	a := &ChunkArchive{r: r}
	for _, o := range opts {
		o(a)
	}
	a.policy = a.policy.Resolved()
	// The index scan rides the same retry ladder as region reads, so a
	// device that fails transiently at open time does not kill the open;
	// EOF passes through untouched (it is the scan's end-of-container
	// signal, and truncation detection depends on it).
	scan := io.ReaderAt(&retryAt{r: r, pol: a.policy})
	var hdr [archiveHeaderLen]byte
	if n, err := readFullAt(scan, hdr[:], 0); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("store: %w: archive header truncated at %d of %d bytes", ErrCorruptRecord, n, len(hdr))
		}
		return nil, fmt.Errorf("store: reading archive header: %w", err)
	}
	if [4]byte(hdr[:4]) != chunkedMagic {
		return nil, fmt.Errorf("store: %w: bad archive magic", ErrCorruptRecord)
	}
	if hdr[4] != chunkedVersion {
		return nil, fmt.Errorf("store: %w: unsupported archive version %d", ErrCorruptRecord, hdr[4])
	}
	a.meta = ArchiveMeta{
		W:            int(binary.BigEndian.Uint32(hdr[5:9])),
		H:            int(binary.BigEndian.Uint32(hdr[9:13])),
		FPS:          int(binary.BigEndian.Uint32(hdr[13:17])),
		GOPSize:      int(binary.BigEndian.Uint32(hdr[17:21])),
		GOPsPerChunk: int(binary.BigEndian.Uint32(hdr[21:25])),
	}
	if a.meta.W <= 0 || a.meta.H <= 0 || a.meta.GOPSize < 1 || a.meta.GOPsPerChunk < 1 {
		return nil, fmt.Errorf("store: %w: invalid archive meta %+v", ErrCorruptRecord, a.meta)
	}
	off := int64(archiveHeaderLen)
	frames := 0
	for {
		rec, next, err := readChunkHeader(scan, off)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rec.info.Index = len(a.recs)
		if rec.info.FirstFrame != frames {
			return nil, fmt.Errorf("store: %w: chunk %d starts at frame %d, want %d", ErrCorruptRecord, rec.info.Index, rec.info.FirstFrame, frames)
		}
		frames += rec.info.Frames
		a.recs = append(a.recs, rec)
		off = next
	}
	return a, nil
}

// retryAt wraps a ReaderAt with the fault policy's retry ladder for the
// open-time index scan: transient errors are retried with the same backoff
// as region reads, while EOF-class results return immediately — they are
// how the scan detects the end (or truncation) of the container.
type retryAt struct {
	r   io.ReaderAt
	pol FaultPolicy
}

func (ra *retryAt) ReadAt(p []byte, off int64) (int, error) {
	var n int
	var err error
	for attempt := 0; attempt <= ra.pol.MaxRetries; attempt++ {
		if attempt > 0 {
			//vetvideoapp:allow ctxfirst — retryAt implements io.ReaderAt, whose signature cannot carry a context; only the open-time index scan runs through it
			if serr := sleepBackoff(context.Background(), ra.pol, off, attempt); serr != nil {
				break
			}
		}
		n, err = ra.r.ReadAt(p, off)
		if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return n, err
		}
	}
	return n, err
}

// noEOF converts a clean io.EOF into io.ErrUnexpectedEOF: running out of
// bytes inside a record is structural truncation, not a clean end of the
// container, and callers probing errors.Is(err, io.EOF) for end-of-archive
// must never match a corruption report.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readChunkHeader parses one record header at off, returning the index entry
// and the offset of the next record. It reads only the header bytes; the
// payload is hopped over by offset arithmetic. io.EOF reports a clean end of
// the container; any partial header is ErrCorruptRecord.
func readChunkHeader(r io.ReaderAt, off int64) (chunkRec, int64, error) {
	// A chunk header is the fixed part plus at most 255 stream entries of
	// bounded size; the section reader bounds what one record may consume
	// without ever touching payload ranges (entries are read front-to-back
	// and sized before each read).
	sr := io.NewSectionReader(r, off, chunkFixedLen+255*(1+255+streamEntryLen))
	var fixed [chunkFixedLen]byte
	if _, err := io.ReadFull(sr, fixed[:]); err != nil {
		if err == io.EOF {
			return chunkRec{}, 0, io.EOF
		}
		return chunkRec{}, 0, fmt.Errorf("store: %w: truncated chunk header at offset %d: %w", ErrCorruptRecord, off, err)
	}
	if [4]byte(fixed[:4]) != chunkMarker {
		return chunkRec{}, 0, fmt.Errorf("store: %w: bad chunk marker at offset %d", ErrCorruptRecord, off)
	}
	rec := chunkRec{
		info: ChunkInfo{
			FirstFrame: int(binary.BigEndian.Uint32(fixed[4:8])),
			Frames:     int(binary.BigEndian.Uint32(fixed[8:12])),
		},
		preciseLen: int64(binary.BigEndian.Uint32(fixed[12:16])),
		pivotLen:   int64(binary.BigEndian.Uint32(fixed[16:20])),
		preciseCRC: binary.BigEndian.Uint32(fixed[20:24]),
		pivotCRC:   binary.BigEndian.Uint32(fixed[24:28]),
	}
	if rec.info.Frames < 1 || rec.info.Frames > 1<<20 {
		return chunkRec{}, 0, fmt.Errorf("store: %w: implausible chunk frame count %d", ErrCorruptRecord, rec.info.Frames)
	}
	nStreams := int(fixed[chunkFixedLen-1])
	hdrLen := int64(chunkFixedLen)
	payload := rec.preciseLen + rec.pivotLen
	for s := 0; s < nStreams; s++ {
		var nameLen [1]byte
		if _, err := io.ReadFull(sr, nameLen[:]); err != nil {
			return chunkRec{}, 0, fmt.Errorf("store: %w: truncated stream entry: %w", ErrCorruptRecord, noEOF(err))
		}
		// Widen before any offset arithmetic: byte addition wraps mod 256,
		// which for names longer than 247 bytes would invert the slice
		// bounds below and panic instead of parsing.
		nl := int(nameLen[0])
		entry := make([]byte, nl+streamEntryLen)
		if _, err := io.ReadFull(sr, entry); err != nil {
			return chunkRec{}, 0, fmt.Errorf("store: %w: truncated stream entry: %w", ErrCorruptRecord, noEOF(err))
		}
		name := string(entry[:nl])
		rs := streamRec{
			name:  name,
			bits:  int64(binary.BigEndian.Uint64(entry[nl : nl+8])),
			bytes: int64(binary.BigEndian.Uint32(entry[nl+8 : nl+12])),
			crc:   binary.BigEndian.Uint32(entry[nl+12:]),
		}
		if rs.bits < 0 || rs.bytes < 0 || rs.bits > rs.bytes*8 {
			return chunkRec{}, 0, fmt.Errorf("store: %w: stream %q: %d bits in %d bytes", ErrCorruptRecord, name, rs.bits, rs.bytes)
		}
		rec.streams = append(rec.streams, rs)
		hdrLen += 1 + int64(len(entry))
		payload += rs.bytes
	}
	rec.info.Offset = off + hdrLen
	rec.info.Length = payload
	return rec, rec.info.Offset + payload, nil
}

// Meta returns the sequence-level header.
func (a *ChunkArchive) Meta() ArchiveMeta { return a.meta }

// NumChunks returns the number of chunks in the container.
func (a *ChunkArchive) NumChunks() int { return len(a.recs) }

// TotalFrames sums the frame counts of every chunk.
func (a *ChunkArchive) TotalFrames() int {
	n := 0
	for _, rec := range a.recs {
		n += rec.info.Frames
	}
	return n
}

// Info returns the location of chunk i. Unknown indices report an error
// wrapping ErrChunkNotFound.
func (a *ChunkArchive) Info(i int) (ChunkInfo, error) {
	if i < 0 || i >= len(a.recs) {
		return ChunkInfo{}, fmt.Errorf("store: %w: chunk %d outside 0..%d", ErrChunkNotFound, i, len(a.recs)-1)
	}
	return a.recs[i].info, nil
}

// Close marks the archive closed: subsequent Info and ReadChunkContext calls
// fail with an error wrapping ErrArchiveClosed. The underlying reader
// belongs to the caller and is not touched — close it separately once Close
// returns and in-flight reads have drained. Close is idempotent.
func (a *ChunkArchive) Close() error {
	a.closed.Store(true)
	return nil
}

// verified reports whether region bytes match their recorded checksum.
func verified(data []byte, crc uint32) bool {
	return crc32.Checksum(data, castagnoli) == crc
}

// readFullAt is r.ReadAt for a caller that wants all of buf. The io.ReaderAt
// contract lets a read ending exactly at the end of the data report
// (len(buf), io.EOF); every byte arrived, so that is a success here.
func readFullAt(r io.ReaderAt, buf []byte, off int64) (int, error) {
	n, err := r.ReadAt(buf, off)
	if n == len(buf) && errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}

// readRegion reads one region of one record — the precise bytes, the pivot
// tables, or a single approximate stream — with the full fault-tolerance
// ladder: verify-on-read, retry with exponential backoff and deterministic
// jitter on transient failures and checksum mismatches, then the mirror
// (nil disables the mirror rung; Scrub exploits that to probe the primary
// alone). EOF inside the region means the container itself is truncated,
// which no retry can fix: it reports ErrCorruptRecord immediately. An
// exhausted ladder reports ErrCorruptRecord when the last failure was a
// checksum mismatch and ErrReadFailed when the device kept erroring.
func (a *ChunkArchive) readRegion(ctx context.Context, o obs.Observer, mirror io.ReaderAt, buf []byte, off int64, crc uint32, label string) error {
	// read attempts one fetch+verify from r; truncated reports the
	// non-retryable case (the container ends inside the region — no retry
	// can grow the file).
	read := func(r io.ReaderAt) (truncated bool, err error) {
		m, err := readFullAt(r, buf, off)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return true, fmt.Errorf("%w: %s truncated at %d of %d bytes", ErrCorruptRecord, label, m, len(buf))
			}
			return false, err
		}
		if !verified(buf, crc) {
			o.Counter(obs.CtrCRCFailures, label, 1)
			return false, fmt.Errorf("%w: %s checksum mismatch", ErrCorruptRecord, label)
		}
		return false, nil
	}

	var lastErr error
	for attempt := 0; attempt <= a.policy.MaxRetries; attempt++ {
		if attempt > 0 {
			o.Counter(obs.CtrReadRetries, "", 1)
			if err := sleepBackoff(ctx, a.policy, off, attempt); err != nil {
				return err
			}
		}
		truncated, err := read(a.r)
		if err == nil {
			return nil
		}
		lastErr = err
		if truncated && mirror == nil {
			return fmt.Errorf("store: %w", err)
		}
		if truncated {
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if mirror != nil {
		if _, err := read(mirror); err == nil {
			o.Counter(obs.CtrMirrorReads, "", 1)
			return nil
		}
	}
	if errors.Is(lastErr, ErrCorruptRecord) {
		return fmt.Errorf("store: %w", lastErr)
	}
	return fmt.Errorf("store: %w: %s: %v", ErrReadFailed, label, lastErr)
}

// ChunkRead is the result of one fault-tolerant chunk read.
type ChunkRead struct {
	// Video carries chunk-local frame indices and decodes on its own.
	Video *codec.Video
	// Parts is the chunk's pivot layout.
	Parts []core.FramePartition
	// Degraded lists the approximate streams (by scheme name) that failed
	// verification after retries and the mirror, and were therefore
	// replaced by zeroes: the video decodes, at reduced quality, instead
	// of failing — the paper's degradation contract. Empty for a fully
	// verified read.
	Degraded []string
}

// ReadChunkContext reads and reassembles chunk i under the archive's fault
// policy: every region read retries transient failures with backoff,
// verifies its CRC, and falls back to the mirror. Damage that survives all
// of that is classified by the reliability boundary: the precise region and
// pivot tables are required — their loss is ErrCorruptRecord (or
// ErrReadFailed when the device, not the data, kept failing) — while a
// damaged approximate stream is zero-filled and reported in
// ChunkRead.Degraded, so the caller still gets a decodable video carrying
// every verified bit.
func (a *ChunkArchive) ReadChunkContext(ctx context.Context, i int) (ChunkRead, error) {
	if a.closed.Load() {
		return ChunkRead{}, fmt.Errorf("store: reading chunk %d: %w", i, ErrArchiveClosed)
	}
	if i < 0 || i >= len(a.recs) {
		return ChunkRead{}, fmt.Errorf("store: %w: chunk %d outside 0..%d", ErrChunkNotFound, i, len(a.recs)-1)
	}
	o := obs.From(ctx)
	rec := &a.recs[i]

	// One buffer holds the record; each region is read and verified in its
	// own window of it, so the ladder still isolates damage per region.
	buf, err := a.recordBuffer(rec)
	if err != nil {
		return ChunkRead{}, fmt.Errorf("store: chunk %d: %w", i, err)
	}
	off := rec.info.Offset
	precise, pivots, streams := buf[:rec.preciseLen], buf[rec.preciseLen:][:rec.pivotLen], buf[rec.preciseLen+rec.pivotLen:]
	if err := a.readRegion(ctx, o, a.mirror, precise, off, rec.preciseCRC, "precise"); err != nil {
		return ChunkRead{}, fmt.Errorf("store: chunk %d precise region: %w", i, err)
	}
	if err := a.readRegion(ctx, o, a.mirror, pivots, off+rec.preciseLen, rec.pivotCRC, "pivots"); err != nil {
		return ChunkRead{}, fmt.Errorf("store: chunk %d pivot tables: %w", i, err)
	}
	// The frame headers declare their payload lengths; the bits can only
	// come from this record's streams, so their byte counts bound what the
	// placeholders may add up to before any of it is allocated.
	v, err := codec.UnmarshalPrecise(precise, int64(len(streams)))
	if err != nil {
		return ChunkRead{}, fmt.Errorf("store: %w: chunk %d precise region: %w", ErrCorruptRecord, i, err)
	}
	parts, err := core.UnmarshalPartitions(pivots)
	if err != nil {
		return ChunkRead{}, fmt.Errorf("store: %w: chunk %d pivot tables: %w", ErrCorruptRecord, i, err)
	}
	if len(parts) != len(v.Frames) {
		return ChunkRead{}, fmt.Errorf("store: %w: chunk %d: %d pivot tables for %d frames", ErrCorruptRecord, i, len(parts), len(v.Frames))
	}
	ss := &core.StreamSet{Parts: parts, Streams: make(map[string][]byte, len(rec.streams)), Bits: make(map[string]int64, len(rec.streams))}
	var degraded []string
	soff := off + rec.preciseLen + rec.pivotLen
	for _, rs := range rec.streams {
		var data []byte
		data, streams = streams[:rs.bytes], streams[rs.bytes:]
		if err := a.readRegion(ctx, o, a.mirror, data, soff, rs.crc, rs.name); err != nil {
			if ctx.Err() != nil {
				return ChunkRead{}, ctx.Err()
			}
			// The reliability boundary: an approximate stream that cannot
			// be read or verified costs quality, never availability. Zero
			// its bits and let the error-resilient decoder conceal.
			clear(data)
			degraded = append(degraded, rs.name)
			o.Counter(obs.CtrDegradedStreams, rs.name, 1)
		}
		ss.Streams[rs.name] = data
		ss.Bits[rs.name] = rs.bits
		soff += rs.bytes
	}
	// v is this call's own placeholder video: merge into it, no second copy.
	if err := ss.MergeInto(v); err != nil {
		return ChunkRead{}, fmt.Errorf("store: %w: chunk %d: %w", ErrCorruptRecord, i, err)
	}
	return ChunkRead{Video: v, Parts: parts, Degraded: degraded}, nil
}

// probeRecordLen is the record size from which ReadChunkContext checks that
// the container actually extends to the record's end before allocating its
// buffer. Lengths come from the record header; below this size a wrong one
// costs a small allocation and a failed read, above it one extra one-byte
// read is nothing beside the record's own.
const probeRecordLen = 64 << 10

// recordBuffer allocates the buffer one record's regions are read into. A
// header may declare gigabytes in a container of a few bytes, so a large
// record is first probed at its last byte: when neither the primary nor the
// mirror holds it the record is truncated — ErrCorruptRecord — and nothing
// is allocated. Any other probe outcome, transient errors included, leaves
// the verdict to the per-region ladder.
func (a *ChunkArchive) recordBuffer(rec *chunkRec) ([]byte, error) {
	if rec.info.Length >= probeRecordLen {
		held := false
		for _, r := range []io.ReaderAt{a.r, a.mirror} {
			if r == nil {
				continue
			}
			var last [1]byte
			n, err := r.ReadAt(last[:], rec.info.Offset+rec.info.Length-1)
			if n == 1 || !(errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				held = true
				break
			}
		}
		if !held {
			return nil, fmt.Errorf("%w: record of %d bytes extends past the end of the container", ErrCorruptRecord, rec.info.Length)
		}
	}
	return make([]byte, rec.info.Length), nil
}

// AppendChunkWriter reopens an existing container for appending: it indexes
// the records already present, positions the stream at the end, and returns
// a writer that continues where the last chunk stopped. rw must also
// implement io.ReaderAt (os.File does) so the index scan can share the
// lock-free read path; a seek-only stream cannot be appended to. A container
// of any other format version is rejected like it is at open, and so is one
// whose last record does not verify (ErrCorruptRecord): the tail a crashed
// append leaves behind. ctx governs that verifying read.
func AppendChunkWriter(ctx context.Context, rw io.ReadWriteSeeker) (*ChunkWriter, error) {
	ra, ok := rw.(io.ReaderAt)
	if !ok {
		return nil, fmt.Errorf("store: append target %T does not implement io.ReaderAt", rw)
	}
	a, err := OpenArchiveBackend(ra)
	if err != nil {
		return nil, err
	}
	end := int64(archiveHeaderLen)
	if n := len(a.recs); n > 0 {
		// The index scan hops payloads unread, so a writer that died inside
		// its last record can leave a header whose payload is short or wrong.
		// Appending behind it would seal the damage mid-container.
		cr, err := a.ReadChunkContext(ctx, n-1)
		if err == nil && len(cr.Degraded) > 0 {
			err = fmt.Errorf("store: %w: chunk %d: streams %v failed verification", ErrCorruptRecord, n-1, cr.Degraded)
		}
		if err != nil {
			return nil, fmt.Errorf("store: append target ends in a damaged record: %w", err)
		}
		last := a.recs[n-1].info
		end = last.Offset + last.Length
	}
	if _, err := rw.Seek(end, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: seeking archive end: %w", err)
	}
	cw := &ChunkWriter{w: rw, meta: a.meta, off: end, frames: a.TotalFrames()}
	for _, rec := range a.recs {
		cw.chunks = append(cw.chunks, rec.info)
	}
	return cw, nil
}

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}
