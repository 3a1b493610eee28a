// Package entropy implements the two entropy-coding backends of the codec:
// a CABAC-class context-adaptive binary arithmetic coder and a CAVLC-class
// variable-length coder.
//
// The arithmetic coder follows the H.264 CABAC architecture: a 64-state
// probability estimation FSM per context, a 9-bit range coder with
// outstanding-bit carry resolution, and bypass coding for near-equiprobable
// bits. The state tables are generated from the published CABAC design
// formula (exponential probability ladder with alpha = (0.01875/0.5)^(1/63)),
// so encoder and decoder share one bit-exact definition. Bit-level
// compatibility with H.264 itself is not required by the experiments — what
// matters is the failure mode: a single flipped bit desynchronizes the
// decoder's range state and corrupts the adaptive contexts for the remainder
// of the frame, exactly the behaviour the paper analyses.
package entropy

import (
	"math"
	"math/bits"

	"videoapp/internal/bitio"
)

const numStates = 64

// Probability FSM tables, generated in init from the CABAC design formula.
var (
	// rangeLPS[state][q] is the sub-range width assigned to the LPS when the
	// current 9-bit range falls in quantization cell q.
	rangeLPS [numStates][4]uint32
	// nextMPS[state] and nextLPS[state] are the state transitions after
	// coding an MPS or LPS respectively.
	nextMPS [numStates]uint8
	nextLPS [numStates]uint8
)

// The coder's hot loops read the same FSM through tables indexed by a packed
// context, state<<1 | MPS, so that one byte load yields the LPS width and one
// more the successor context, the MPS flip of an LPS at state 0 included.
var (
	// lpsRange[p][q] is rangeLPS[p>>1][q]; every entry fits a byte.
	lpsRange [2 * numStates][4]uint8
	// transMPS[p] and transLPS[p] are the packed context after coding the
	// MPS or the LPS in packed context p.
	transMPS [2 * numStates]uint8
	transLPS [2 * numStates]uint8
)

func init() {
	alpha := math.Pow(0.01875/0.5, 1.0/63.0)
	p := make([]float64, numStates)
	for s := 0; s < numStates; s++ {
		p[s] = 0.5 * math.Pow(alpha, float64(s))
	}
	for s := 0; s < numStates; s++ {
		for q := 0; q < 4; q++ {
			// Representative range value for cell q: 256+64q+32.
			r := float64(64*q + 288)
			v := uint32(math.Round(p[s] * r))
			if v < 2 {
				v = 2
			}
			rangeLPS[s][q] = v
		}
		if s < numStates-1 {
			nextMPS[s] = uint8(s + 1)
		} else {
			nextMPS[s] = uint8(s)
		}
		// After an LPS the probability moves back toward 0.5:
		// pNew = alpha*p + (1-alpha); find the closest state.
		pNew := alpha*p[s] + (1 - alpha)
		if pNew > 0.5 {
			pNew = 0.5
		}
		best, bestD := 0, math.Inf(1)
		for c := 0; c < numStates; c++ {
			if d := math.Abs(p[c] - pNew); d < bestD {
				best, bestD = c, d
			}
		}
		nextLPS[s] = uint8(best)
	}
	for p := range lpsRange {
		s, mps := p>>1, uint8(p&1)
		for q, v := range rangeLPS[s] {
			lpsRange[p][q] = uint8(v)
		}
		transMPS[p] = nextMPS[s]<<1 | mps
		if s == 0 {
			// An LPS in the equiprobable state swaps the roles of the symbols.
			mps ^= 1
		}
		transLPS[p] = nextLPS[s]<<1 | mps
	}
}

// Context is one adaptive binary probability model: the FSM state and the
// current most-probable symbol, packed as state<<1 | MPS. The zero value is
// the equiprobable state every slice starts from.
type Context struct{ p uint8 }

// renormShift is the number of doublings that bring a range below 256 back
// into [256, 511], and zero for a range already there.
func renormShift(rng uint32) uint { return uint(9 - bits.Len32(rng)) }

// Encoder is the binary arithmetic encoder.
//
// It keeps the code value as one integer: low holds the 10-bit coding
// register in bits 0..9 and, above it, the queue of code bits shifted out of
// the register but not yet taken as bytes. An LPS adds to the register and
// the addition carries into the queue by itself; a byte leaves the queue
// once eight bits are there and is handed to the writer when no later carry
// can reach it (pend, ffs). Nothing is decided bit by bit, but the stream is
// the one a bit-serial coder with outstanding-bit counting produces: the
// bits that pass through bit 9 of the register, in order, without the
// never-set first one (the register's initial bit 9).
type Encoder struct {
	w    *bitio.Writer
	base int64 // w's bit position where this codeword starts
	low  uint32
	rng  uint32
	// queue counts the code bits in low above the register — it starts at
	// -1 because the first bit shifted out is the one that is dropped — and
	// taken the bytes already moved out of low.
	queue int
	taken int64
	// pend is the last byte taken that is not 0xFF (-1 before the first)
	// and ffs the number of 0xFF bytes taken after it. A carry out of the
	// queue increments pend and turns the 0xFF run into zeros, so they stay
	// back until the next byte that stops a carry is taken.
	pend int
	ffs  int
	// held is the number of outstanding bits a bit-serial coder would be
	// counting now: the ones directly above the register that a carry can
	// still flip. It changes nothing that is written; BitPos needs it to
	// report the position such a coder's writer would be at, which is what
	// the per-macroblock bit ranges of the analysis were defined by.
	held uint
}

// NewEncoder returns an encoder writing to w. The caller should byte-align w
// before starting a new arithmetic-coded payload.
func NewEncoder(w *bitio.Writer) *Encoder {
	e := new(Encoder)
	e.start(w)
	return e
}

// start begins a codeword at w's current position.
func (e *Encoder) start(w *bitio.Writer) {
	*e = Encoder{w: w, base: w.BitPos(), rng: 510, queue: -1, pend: -1}
}

// BitPos reports the writer position of a bit-serial coder at this point:
// every code bit above the register except the outstanding run it would
// still be holding back.
func (e *Encoder) BitPos() int64 {
	return e.base + max(0, 8*e.taken+int64(e.queue)-int64(e.held))
}

// shift moves the top k bits of the register into the queue, as k
// renormalisation doublings do. The caller takes a byte once eight are
// queued; kept apart, shift is small enough to be inlined.
func (e *Encoder) shift(k uint) {
	e.held = trackHeld(e.held, e.low>>(9-k), k)
	e.low <<= k
	e.queue += int(k)
}

// trackHeld is the outstanding count after k doublings from held. x is low
// shifted so that its low k bits are the bits leaving the register below
// bit 9 and bit k is bit 9. A bit-serial coder looks at them a pair at a
// time, its own bit 9 first: while that is clear, a one below it joins the
// outstanding run and a zero resolves the run; once it is set, ones are
// resolved as they come. Its bit 9 is low's bit 9, except above a held run,
// whose lowest one sits there until a carry into the run clears it. After k
// steps the run is therefore the trailing ones of the k bits, unless all k
// are ones: those extend a held run, or leave none behind a set bit 9.
func trackHeld(held uint, x uint32, k uint) uint {
	// Written as selects rather than branches: the outcome follows the
	// coded data and would mispredict about every other bypass bin.
	top := x >> k & 1
	if held > 0 {
		top ^= 1
	}
	next := held + k
	if top == 1 {
		next = 0
	}
	if ones := uint(bits.TrailingZeros32(^x)); ones < k {
		next = ones
	}
	return next
}

// takeByte moves the top eight queued bits, and the carry above them, out
// of low.
func (e *Encoder) takeByte() {
	out := e.low >> uint(e.queue+2)
	e.low &= 1<<uint(e.queue+2) - 1
	e.queue -= 8
	e.taken++
	if out == 0xFF {
		e.ffs++
		return
	}
	// out is at most 0x100: a byte that stops any later carry, after
	// delivering the one it may bring to the bytes held back.
	carry := out >> 8
	if e.pend >= 0 {
		e.w.WriteBits(uint64(uint32(e.pend)+carry), 8)
	}
	for ; e.ffs > 0; e.ffs-- {
		e.w.WriteBits(uint64(0xFF+carry), 8) // 0xFF, or 0x00 after a carry
	}
	e.pend = int(out & 0xFF)
}

// EncodeBit codes one bit with the adaptive context ctx.
func (e *Encoder) EncodeBit(ctx *Context, bit int) {
	p := ctx.p
	rl := uint32(lpsRange[p][(e.rng>>6)&3])
	rng := e.rng - rl
	if uint8(bit) == p&1 {
		ctx.p = transMPS[p]
		if rng >= 256 {
			e.rng = rng
			return
		}
	} else {
		e.low += rng
		rng = rl
		ctx.p = transLPS[p]
	}
	k := renormShift(rng)
	e.rng = rng << k
	e.shift(k)
	if e.queue >= 8 {
		e.takeByte()
	}
}

// EncodeBypass codes one equiprobable bit without touching any context.
func (e *Encoder) EncodeBypass(bit int) {
	e.low <<= 1
	if bit == 1 {
		e.low += e.rng
	}
	e.held = bypassHeld(e.held, e.low)
	e.queue++
	if e.queue >= 8 {
		e.takeByte()
	}
}

// bypassHeld is the outstanding count after a bypass bin from held, low the
// register after the bin. The register was doubled before the addition, so
// the bit pair a bit-serial coder examines sits one position higher. One
// step of trackHeld: the run grows by a one under a clear top bit and ends
// otherwise.
func bypassHeld(held uint, low uint32) uint {
	grow := low >> 9 &^ (low >> 10) & 1
	if held > 0 {
		grow = low >> 9 & (low >> 10) & 1
	}
	return (held + 1) & -uint(grow)
}

// Flush terminates the arithmetic codeword so the decoder can reconstruct
// every coded bit, and byte-aligns the underlying writer. It follows the
// H.264 EncodeFlush procedure: shrink the range to 2, renormalize to push
// out the remaining significant bits of low, then emit the final two bits.
// The encoder is left ready to start another codeword at the new position.
func (e *Encoder) Flush() {
	e.shift(renormShift(2))
	if e.queue >= 8 {
		e.takeByte()
	}
	// The codeword ends with bit 9, bit 8 and a one in place of bit 7,
	// followed by nine zero bits: trailing padding guarantees the decoder's
	// 9-bit prefetch never starves inside the meaningful part of the stream.
	e.low = (e.low | 0x80) << (2 + 9)
	e.queue += 2 + 9
	for e.queue >= 8 {
		e.takeByte()
	}
	// No addition follows, so nothing can carry any more: release what was
	// held back. The bits left — the queue and bit 9 below it — are the
	// last of the padding.
	if e.pend >= 0 {
		e.w.WriteBits(uint64(e.pend), 8)
	}
	for ; e.ffs > 0; e.ffs-- {
		e.w.WriteBits(0xFF, 8)
	}
	e.w.WriteBits(0, uint(e.queue+1))
	e.w.AlignByte()
	e.start(e.w)
}

// Decoder is the binary arithmetic decoder. It is deliberately forgiving:
// reads past the end of the buffer produce zero bits (and are counted) so
// that corrupted streams decode to garbage rather than aborting, mirroring
// a real error-concealing video decoder.
//
// The stream is read through a 64-bit window: win holds the next avail
// unread bits left-aligned, and is reloaded from the buffer — zero-filled
// past its end — only when a renormalisation needs more bits than are left,
// about once per 57 bits. The position is not stored: the window's end is,
// and the bits still in the window are ahead of the position by definition,
// so consuming bits is a shift and a subtraction on two words.
type Decoder struct {
	buf    []byte
	end    int64 // len(buf) in bits
	winEnd int64 // bit position just past the last bit in win
	win    uint64
	avail  uint
	rng    uint32
	offset uint32
}

// NewDecoder initializes a decoder over the rest of r's stream, consuming
// the 9-bit prefetch. The decoder reads r's buffer directly from r's
// position on; r itself is not advanced.
func NewDecoder(r *bitio.Reader) *Decoder {
	d := new(Decoder)
	d.reset(r.Buffer(), r.BitPos())
	return d
}

// reset restarts the decoder over buf at bit position pos, consuming the
// 9-bit prefetch.
func (d *Decoder) reset(buf []byte, pos int64) {
	*d = Decoder{buf: buf, end: int64(len(buf)) * 8, winEnd: pos, rng: 510}
	d.refill()
	d.offset = uint32(d.win >> (64 - 9))
	d.win <<= 9
	d.avail -= 9
}

// refill reloads the window at the current position. It leaves at least 57
// bits available, more than any single step of the coder consumes.
func (d *Decoder) refill() {
	pos := d.pos()
	d.win = bitio.Window(d.buf, pos)
	d.avail = 64 - uint(pos&7)
	d.winEnd = pos + int64(d.avail)
}

// pos is the number of stream bits consumed, counting the zero bits read
// past the end.
func (d *Decoder) pos() int64 { return d.winEnd - int64(d.avail) }

// Overruns reports how many bits were read past the end of the stream — a
// desync indicator for the error-resilient codec layer.
func (d *Decoder) Overruns() int { return int(max(0, d.pos()-d.end)) }

// BitPos reports the bits consumed from the underlying stream, including the
// 9-bit initialization prefetch; it stops at the end of the stream.
func (d *Decoder) BitPos() int64 { return min(d.pos(), d.end) }

// DecodeBit decodes one bit with the adaptive context ctx.
func (d *Decoder) DecodeBit(ctx *Context) int {
	p := ctx.p
	rl := uint32(lpsRange[p][(d.rng>>6)&3])
	rng := d.rng - rl
	bit := int(p & 1)
	if d.offset < rng {
		ctx.p = transMPS[p]
		if rng >= 256 {
			d.rng = rng
			return bit
		}
	} else {
		bit ^= 1
		d.offset -= rng
		rng = rl
		ctx.p = transLPS[p]
	}
	// Renormalise: the range doubles k times and the offset takes the next k
	// stream bits. An LPS doubles up to seven times. An MPS usually doubles
	// once, but not always: in the three least skewed states the LPS takes
	// 144, 137 or 130 of a range just above 256, which leaves the MPS 112 to
	// 127 and doubles twice (state 0 from a range below 272).
	k := renormShift(rng)
	if d.avail < k {
		d.refill()
	}
	d.rng = rng << k
	d.offset = d.offset<<k | uint32(d.win>>(64-k))
	d.win <<= k
	d.avail -= k
	return bit
}

// DecodeBypass decodes one bypass-coded bit.
func (d *Decoder) DecodeBypass() int {
	if d.avail == 0 {
		d.refill()
	}
	d.offset = d.offset<<1 | uint32(d.win>>63)
	d.win <<= 1
	d.avail--
	if d.offset >= d.rng {
		d.offset -= d.rng
		return 1
	}
	return 0
}
