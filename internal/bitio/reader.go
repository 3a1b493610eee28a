package bitio

import (
	"errors"
	"math/bits"
)

// ErrOutOfBits is returned when a read crosses the end of the stream.
//
// The error-resilient video decoder treats it as a desync signal and conceals
// the rest of the frame rather than aborting the whole decode.
var ErrOutOfBits = errors.New("bitio: out of bits")

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int64 // bit position
}

// NewReader returns a Reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset re-targets the reader at the start of buf, so one Reader value can
// serve a sequence of streams without a fresh allocation per stream.
func (r *Reader) Reset(buf []byte) { r.buf, r.pos = buf, 0 }

// ReadBit returns the next bit, or ErrOutOfBits past the end.
func (r *Reader) ReadBit() (int, error) {
	if r.pos >= int64(len(r.buf))*8 {
		return 0, ErrOutOfBits
	}
	b := r.buf[r.pos>>3] >> (7 - uint(r.pos&7)) & 1
	r.pos++
	return int(b), nil
}

// ReadBits returns the next n bits as the low bits of a uint64, MSB-first.
// n must be in [0, 64]. When fewer than n bits remain the reader consumes
// them all and returns ErrOutOfBits, exactly as the bit-at-a-time loop did.
// The read proceeds a byte at a time, so wide reads cost n/8 extractions.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if int64(n) > r.Remaining() {
		r.pos = int64(len(r.buf)) * 8
		return 0, ErrOutOfBits
	}
	var v uint64
	pos, left := r.pos, n
	for left > 0 {
		avail := 8 - uint(pos&7)
		take := avail
		if take > left {
			take = left
		}
		chunk := uint64(r.buf[pos>>3]>>(avail-take)) & (1<<take - 1)
		v = v<<take | chunk
		pos += int64(take)
		left -= take
	}
	r.pos = pos
	return v, nil
}

// ReadBool reads one bit and reports whether it is 1.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b == 1, err
}

// ReadUE reads an unsigned exponential-Golomb code.
//
// Corrupt streams can contain arbitrarily long runs of zeros; runs longer
// than 32 bits are reported as ErrOutOfBits so that callers treat them as a
// desync rather than an infinite value. The zero prefix is counted on a
// 64-bit window of the stream in one step; what the reader has consumed when
// it fails is what counting the zeros bit by bit consumed (33 zeros of an
// over-long run, or everything when the stream ends first).
func (r *Reader) ReadUE() (uint32, error) {
	rem := r.Remaining()
	if rem <= 0 {
		return 0, ErrOutOfBits
	}
	zeros := uint(bits.LeadingZeros64(Window(r.buf, r.pos)))
	if zeros > 32 {
		r.pos += min(rem, 33)
		return 0, ErrOutOfBits
	}
	// zeros <= 32 means the window holds a one, which is a stream bit: the
	// window is zero past the end.
	r.pos += int64(zeros) + 1
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	v := (uint64(1)<<zeros | rest) - 1
	return uint32(v), nil
}

// ReadSE reads a signed exponential-Golomb code.
func (r *Reader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	return ueToSE(u), nil
}

// BitPos reports the number of bits consumed so far.
func (r *Reader) BitPos() int64 { return r.pos }

// Buffer returns the whole stream the reader is over, consumed part
// included, for a decoder that continues from BitPos with its own window.
func (r *Reader) Buffer() []byte { return r.buf }

// SeekBit positions the reader at absolute bit offset pos.
func (r *Reader) SeekBit(pos int64) {
	if pos < 0 {
		pos = 0
	}
	r.pos = pos
}

// AlignByte advances to the next byte boundary.
func (r *Reader) AlignByte() {
	if rem := r.pos & 7; rem != 0 {
		r.pos += 8 - rem
	}
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int64 { return int64(len(r.buf))*8 - r.pos }
