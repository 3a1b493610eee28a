package codec

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"sync/atomic"

	"videoapp/internal/predict"
)

// Decoding a macroblock has two stages. Parse turns entropy-coded bits into
// an mbSyntax — every read, clamp and desync decision lives there — and
// reconstruct turns an mbSyntax into samples. The parsed syntax of a frame
// depends only on its bytes and a few header facts (frameSyntax.key), so a
// frame known to be a bit-identical copy of one decoded before (ShareSyntax)
// can skip the arithmetic decoder: the first decode of such a copy leaves what
// it parsed in the SyntaxSlot the copies share, and later decodes fill the
// same mbSyntax from that record and run the same reconstruct stage.

// mbSyntax is what the entropy stream says about one macroblock, after every
// range check: reconstruct needs nothing else from the payload.
type mbSyntax struct {
	// mbType is mbSkip … mbInter4x4 after the no-reference collapse to
	// intra.
	mbType int
	mode   predict.IntraMode // mbIntra only
	qp     int               // the quantizer in effect, not the coded delta
	// motion holds the partitions of every inter type; a skip is one forward
	// 16×16 partition at the median vector.
	motion mbMotion
	res    mbResidual
}

// setType sets the macroblock type and, for inter types, the zeroed motion
// description over the type's partition table.
func (s *mbSyntax) setType(t int) {
	s.mbType = t
	if t != mbIntra {
		s.motion = mbMotion{rects: predict.PartitionRects(mbTypeToShape(t))}
	}
}

// syntaxKey is what a frame's parsed syntax depends on: the payload and
// slice-table bytes (by CRC-32C — identity is checked, not assumed) and the
// facts outside them that parsing consults.
type syntaxKey struct {
	crc            uint32
	w, h           int
	frameType      FrameType
	baseQP         int
	entropy        EntropyKind
	refFwd, refBwd bool // reference present: inter types and directions collapse without one
}

// frameSyntax is the recorded parse of one frame: the mbSyntax of every
// macroblock the slice table reaches, in decode order, as a byte stream
// (appendMB/readMB) with one desync byte closing each slice. It is immutable
// once published.
type frameSyntax struct {
	key  syntaxKey
	data []byte
}

// SyntaxSlot is where the decodes of bit-identical copies of one frame meet:
// it holds the latest parse on record for them. Every EncodedFrame has one of
// its own (SyntaxSlot) for copies made of it; an owner that outlives the
// frames it reads — the chunk server, across reads of one archive record —
// keeps the records itself, packed (PackSyntax), and hands each decode fresh
// slots that hold them (PackedSyntax.Slots). The zero value is empty and
// ready; a slot is safe for concurrent use and must not be copied.
type SyntaxSlot struct {
	rec atomic.Pointer[frameSyntax]
}

// PackedSyntax is the parse records of a run of frames with their bytes
// packed back to back in one arena its owner keeps (PackSyntax): only the
// small per-frame keys are Go heap objects. It is immutable; the zero value
// holds no record.
type PackedSyntax struct {
	// recs[j] is frame j's record; data is nil for a frame without one.
	recs []frameSyntax
}

// SyntaxLen returns the length of the arena PackSyntax packs the records
// held in slots into: the sum of their byte streams.
func SyntaxLen(slots []SyntaxSlot) int {
	n := 0
	for j := range slots {
		if m := slots[j].rec.Load(); m != nil {
			n += len(m.data)
		}
	}
	return n
}

// PackSyntax copies the records held in slots into arena, which must be
// SyntaxLen(slots) bytes long, and returns them packed: record j is the one
// slot j held. The result reads its bytes from arena, which the caller keeps
// alive and unchanged for as long as anything decodes from it.
func PackSyntax(arena []byte, slots []SyntaxSlot) PackedSyntax {
	p := PackedSyntax{recs: make([]frameSyntax, len(slots))}
	at := 0
	for j := range slots {
		if m := slots[j].rec.Load(); m != nil {
			end := at + len(m.data)
			p.recs[j] = frameSyntax{key: m.key, data: arena[at:end:end]}
			copy(p.recs[j].data, m.data)
			at = end
		}
	}
	return p
}

// Slots returns n fresh slots for one decode of a run of frames to share
// (EncodedFrame.ShareSyntax), slot j holding frame j's packed record when p
// has one. The decode records what it parses into these slots, never into
// p, so one PackedSyntax serves any number of decodes at once.
func (p PackedSyntax) Slots(n int) []SyntaxSlot {
	slots := make([]SyntaxSlot, n)
	for j := range min(n, len(p.recs)) {
		if p.recs[j].data != nil {
			slots[j].rec.Store(&p.recs[j])
		}
	}
	return slots
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// syntaxKeyOf computes the key of the frame fd is about to decode.
func (fd *frameDecoder) syntaxKeyOf() syntaxKey {
	ef := fd.ef
	crc := crc32.Update(0, castagnoli, ef.Payload)
	// The slice table goes through the decoder's scratch buffer: a local one
	// would escape into the checksum's dispatch and cost an allocation.
	tab := fd.parsed[:0]
	for _, t := range [2][]int{ef.SliceMBStart, ef.SliceByteStart} {
		tab = binary.AppendUvarint(tab, uint64(len(t)))
		for _, v := range t {
			tab = binary.AppendVarint(tab, int64(v))
		}
	}
	crc = crc32.Update(crc, castagnoli, tab)
	fd.parsed = tab[:0]
	return syntaxKey{
		crc: crc, w: fd.video.W, h: fd.video.H,
		frameType: ef.Type, baseQP: ef.BaseQP, entropy: fd.video.Params.Entropy,
		refFwd: fd.refF != nil, refBwd: fd.refB != nil,
	}
}

// SyntaxSlot returns the slot decodes of f's bytes meet in: the one f was
// told to share, else f's own.
func (f *EncodedFrame) SyntaxSlot() *SyntaxSlot {
	if f.shared != nil {
		return f.shared
	}
	return &f.syntax
}

// ShareSyntax declares f a bit-identical copy — same payload bytes, same
// slice table — of whatever else decodes through slot, so decodes of f may
// replay the parse on record there and leave theirs. Only a caller with reason
// to expect equal bytes should say so (store.StoreContext, for a cloned frame
// that kept zero flips, with the source frame's slot; the chunk server, for
// the same archive record read again); a wrong claim costs one CRC per decode
// and changes no sample, because the record is only replayed under a matching
// key.
func (f *EncodedFrame) ShareSyntax(slot *SyntaxSlot) { f.shared = slot }

func appendMV(dst []byte, mv predict.MV) []byte {
	dst = binary.AppendVarint(dst, int64(mv.X))
	return binary.AppendVarint(dst, int64(mv.Y))
}

// appendMB appends one macroblock's syntax: the type byte; for every coded
// type the quantizer; the intra mode or, per partition, the direction and
// the vectors that direction uses (varints); then the nonzero-block map and, per block
// in it, the mask of its nonzero positions followed by their levels. The mask
// is a uvarint, one byte for most blocks: nonzero levels gather at the low
// frequencies, the first positions of the raster.
func appendMB(dst []byte, s *mbSyntax) []byte {
	dst = append(dst, byte(s.mbType))
	dst = append(dst, byte(s.qp))
	if s.mbType == mbIntra {
		dst = append(dst, byte(s.mode))
	} else {
		m := &s.motion
		for i := range m.rects {
			dst = append(dst, byte(m.dirs[i]))
			if m.dirs[i] != dirBwd {
				dst = appendMV(dst, m.mvF[i])
			}
			if m.dirs[i] != dirFwd {
				dst = appendMV(dst, m.mvB[i])
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(s.res.nz))
	for b := range s.res.blocks {
		if s.res.nz&(1<<uint(b)) == 0 {
			continue
		}
		blk := &s.res.blocks[b]
		var mask uint16
		for i, v := range blk {
			if v != 0 {
				mask |= 1 << uint(i)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(mask))
		for _, v := range blk {
			if v != 0 {
				dst = binary.AppendVarint(dst, int64(v))
			}
		}
	}
	return dst
}

// syntaxReader walks a frameSyntax byte stream. The stream is this package's
// own output for the same key, so it is read without bounds negotiation: a
// short stream is a bug and panics on the index.
type syntaxReader struct {
	data []byte
	pos  int
}

func (r *syntaxReader) u8() byte {
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *syntaxReader) uvarint() uint32 {
	// One-byte values are nearly all of them.
	if b := r.data[r.pos]; b < 0x80 {
		r.pos++
		return uint32(b)
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	r.pos += n
	return uint32(v)
}

// mask reads a block's position mask: a uvarint of 16 bits, so one to three
// bytes, unrolled because it runs once per coded block of a replay.
func (r *syntaxReader) mask() uint32 {
	b0 := uint32(r.data[r.pos])
	if b0 < 0x80 {
		r.pos++
		return b0
	}
	b1 := uint32(r.data[r.pos+1])
	if b1 < 0x80 {
		r.pos += 2
		return b0&0x7f | b1<<7
	}
	b2 := uint32(r.data[r.pos+2])
	r.pos += 3
	return b0&0x7f | (b1&0x7f)<<7 | b2<<14
}

// varint reads what binary.AppendVarint wrote (zig-zag over uvarint).
func (r *syntaxReader) varint() int32 {
	u := r.uvarint()
	return int32(u>>1) ^ -int32(u&1)
}

func (r *syntaxReader) mv() predict.MV {
	x, y := r.varint(), r.varint()
	return predict.MV{X: int16(x), Y: int16(y)}
}

// readMB fills s with the next macroblock of the stream: the inverse of
// appendMB, leaving s exactly as the parse that was recorded left it (the
// levels of a block outside nz are never read, so they are not restored).
func (r *syntaxReader) readMB(s *mbSyntax) {
	s.setType(int(r.u8()))
	s.qp = int(r.u8())
	if s.mbType == mbIntra {
		s.mode = predict.IntraMode(r.u8())
	} else {
		m := &s.motion
		for i := range m.rects {
			m.dirs[i] = int(r.u8())
			if m.dirs[i] != dirBwd {
				m.mvF[i] = r.mv()
			}
			if m.dirs[i] != dirFwd {
				m.mvB[i] = r.mv()
			}
		}
	}
	s.res.nz = r.uvarint()
	for nz := s.res.nz & (1<<mbBlocks - 1); nz != 0; nz &= nz - 1 {
		blk := &s.res.blocks[bits.TrailingZeros32(nz)]
		*blk = [16]int32{}
		for mask := r.mask(); mask != 0; mask &= mask - 1 {
			blk[bits.TrailingZeros32(mask)] = r.varint()
		}
	}
}
