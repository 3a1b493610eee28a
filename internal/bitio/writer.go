// Package bitio provides MSB-first bit-level readers and writers used by the
// entropy coders and bitstream (de)serializers, together with the
// exponential-Golomb codes used for header metadata.
//
// All offsets are expressed in bits from the start of the stream so that
// higher layers (the VideoApp partitioner in particular) can attribute every
// single output bit to the macroblock that produced it.
package bitio

import "math/bits"

// Writer accumulates bits MSB-first into a byte slice.
//
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  byte  // partially filled byte
	nCur uint  // number of bits in cur (0..7)
	pos  int64 // total bits written
}

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(bit int) {
	w.cur = w.cur<<1 | byte(bit&1)
	w.nCur++
	w.pos++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the n least-significant bits of v, most significant
// first. n must be in [0, 64]. The write proceeds a byte at a time once the
// partial byte is filled, so long runs (the arithmetic coder's outstanding
// bits, payload padding) cost n/8 appends rather than n.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<n - 1
	}
	w.pos += int64(n)
	if w.nCur != 0 {
		fill := 8 - w.nCur
		if fill > n {
			w.cur = w.cur<<n | byte(v)
			w.nCur += n
			return
		}
		w.cur = w.cur<<fill | byte(v>>(n-fill))
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
		n -= fill
	}
	for n >= 8 {
		n -= 8
		w.buf = append(w.buf, byte(v>>n))
	}
	if n > 0 {
		w.cur = byte(v) & (1<<n - 1)
		w.nCur = n
	}
}

// AppendBits appends the n bits of src that start at bit offset srcPos,
// which must not be negative. Bits past the end of src read as zero, as
// GetBit reports them, so the writer always grows by exactly n bits. Whole
// bytes of the run are placed by CopyBits; only the bits that fill the
// writer's partial byte and the run's last partial byte go through
// WriteBits.
func (w *Writer) AppendBits(src []byte, srcPos, n int64) {
	if n <= 0 {
		return
	}
	if w.nCur != 0 {
		k := min(int64(8-w.nCur), n)
		w.WriteBits(Window(src, srcPos)>>(64-uint(k)), uint(k))
		srcPos, n = srcPos+k, n-k
	}
	if nb := int(n >> 3); nb > 0 {
		at := len(w.buf)
		w.buf = append(w.buf, make([]byte, nb)...)
		CopyBits(w.buf[at:], 0, src, srcPos, int64(nb)*8)
		w.pos += int64(nb) * 8
		srcPos, n = srcPos+int64(nb)*8, n&7
	}
	if n > 0 {
		w.WriteBits(Window(src, srcPos)>>(64-uint(n)), uint(n))
	}
}

// WriteBool appends a single bit: 1 for true, 0 for false.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteUE appends v using unsigned exponential-Golomb coding: n-1 zeros
// and the n bits of v+1. Those are the 2n-1 low bits of v+1 itself, one
// write for every code but that of a v with v+1 = 2³², whose 65 bits take
// two.
func (w *Writer) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x))
	if n > 32 {
		w.WriteBits(0, n-1) // leading zeros
		w.WriteBits(x, n)
		return
	}
	w.WriteBits(x, 2*n-1)
}

// WriteSE appends v using signed exponential-Golomb coding, mapping
// 0, 1, -1, 2, -2, ... to codes 0, 1, 2, 3, 4, ...
func (w *Writer) WriteSE(v int32) {
	w.WriteUE(seToUE(v))
}

// BitPos reports the number of bits written so far.
func (w *Writer) BitPos() int64 { return w.pos }

// AlignByte pads with zero bits to the next byte boundary.
func (w *Writer) AlignByte() {
	if w.nCur != 0 {
		w.WriteBits(0, 8-w.nCur)
	}
}

// Bytes returns the written stream, padding the final partial byte with
// zeros. The writer remains usable; the returned slice must not be modified
// if more bits will be written.
func (w *Writer) Bytes() []byte {
	if w.nCur == 0 {
		return w.buf
	}
	out := make([]byte, len(w.buf), len(w.buf)+1)
	copy(out, w.buf)
	return append(out, w.cur<<(8-w.nCur))
}

// Len reports the length in bytes of the stream returned by Bytes.
func (w *Writer) Len() int {
	n := len(w.buf)
	if w.nCur != 0 {
		n++
	}
	return n
}

// Reset truncates the writer to empty, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.nCur, w.pos = 0, 0, 0
}

func seToUE(v int32) uint32 {
	if v <= 0 {
		return uint32(-2 * int64(v))
	}
	return uint32(2*int64(v) - 1)
}

func ueToSE(u uint32) int32 {
	if u%2 == 0 {
		return int32(-(int64(u) / 2))
	}
	return int32((int64(u) + 1) / 2)
}
