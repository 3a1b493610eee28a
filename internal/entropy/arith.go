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
}

// Context is one adaptive binary probability model: the FSM state and the
// current most-probable symbol.
type Context struct {
	State uint8
	MPS   uint8
}

// Encoder is the binary arithmetic encoder.
type Encoder struct {
	w           *bitio.Writer
	low         uint32
	rng         uint32
	outstanding int
	first       bool
}

// NewEncoder returns an encoder writing to w. The caller should byte-align w
// before starting a new arithmetic-coded payload.
func NewEncoder(w *bitio.Writer) *Encoder {
	return &Encoder{w: w, rng: 510, first: true}
}

func (e *Encoder) putBit(b int) {
	if e.first {
		// The very first renormalization output of a range coder carries no
		// information (it is always resolvable); H.264 drops it too.
		e.first = false
	} else {
		e.w.WriteBit(b)
	}
	if e.outstanding == 0 {
		return
	}
	// A carry resolution releases the whole outstanding run at once as the
	// emitted bit's inverse; write it in word-wide chunks.
	var pat uint64
	if b == 0 {
		pat = ^uint64(0)
	}
	for e.outstanding > 0 {
		k := e.outstanding
		if k > 64 {
			k = 64
		}
		e.w.WriteBits(pat, uint(k))
		e.outstanding -= k
	}
}

func (e *Encoder) renorm() {
	if e.rng >= 256 {
		return
	}
	// The shift count is known up front: double rng until it re-enters
	// [256, 511]. rng is hoisted out of the loop; low still walks bit by bit
	// because each emitted bit depends on the running value after the
	// previous subtraction.
	k := 9 - bits.Len32(e.rng)
	e.rng <<= uint(k)
	for ; k > 0; k-- {
		switch {
		case e.low < 256:
			e.putBit(0)
		case e.low >= 512:
			e.low -= 512
			e.putBit(1)
		default:
			e.low -= 256
			e.outstanding++
		}
		e.low <<= 1
	}
}

// EncodeBit codes one bit with the adaptive context ctx.
func (e *Encoder) EncodeBit(ctx *Context, bit int) {
	q := (e.rng >> 6) & 3
	rl := rangeLPS[ctx.State][q]
	e.rng -= rl
	if uint8(bit) == ctx.MPS {
		ctx.State = nextMPS[ctx.State]
	} else {
		e.low += e.rng
		e.rng = rl
		if ctx.State == 0 {
			ctx.MPS ^= 1
		}
		ctx.State = nextLPS[ctx.State]
	}
	e.renorm()
}

// EncodeBypass codes one equiprobable bit without touching any context.
func (e *Encoder) EncodeBypass(bit int) {
	e.low <<= 1
	if bit == 1 {
		e.low += e.rng
	}
	switch {
	case e.low >= 1024:
		e.low -= 1024
		e.putBit(1)
	case e.low < 512:
		e.putBit(0)
	default:
		e.low -= 512
		e.outstanding++
	}
}

// Flush terminates the arithmetic codeword so the decoder can reconstruct
// every coded bit, and byte-aligns the underlying writer. It follows the
// H.264 EncodeFlush procedure: shrink the range to 2, renormalize to push
// out the remaining significant bits of low, then emit the final two bits.
func (e *Encoder) Flush() {
	e.rng = 2
	e.renorm()
	e.putBit(int(e.low >> 9 & 1))
	e.w.WriteBits(uint64(e.low>>7&3|1), 2)
	// Trailing padding guarantees the decoder's 9-bit prefetch never starves
	// inside the meaningful part of the stream.
	e.w.WriteBits(0, 9)
	e.w.AlignByte()
}

// Decoder is the binary arithmetic decoder. It is deliberately forgiving:
// reads past the end of the buffer produce zero bits (and are counted) so
// that corrupted streams decode to garbage rather than aborting, mirroring
// a real error-concealing video decoder.
type Decoder struct {
	r        *bitio.Reader
	rng      uint32
	offset   uint32
	overruns int
}

// NewDecoder initializes a decoder from r, consuming the 9-bit prefetch.
func NewDecoder(r *bitio.Reader) *Decoder {
	d := new(Decoder)
	d.reset(r)
	return d
}

// reset restarts the decoder over r, consuming the 9-bit prefetch.
func (d *Decoder) reset(r *bitio.Reader) {
	*d = Decoder{r: r, rng: 510}
	d.offset = uint32(d.nextBits(9))
}

func (d *Decoder) nextBit() int {
	b, err := d.r.ReadBit()
	if err != nil {
		d.overruns++
		return 0
	}
	return b
}

// nextBits reads k bits at once with the decoder's forgiving end-of-stream
// semantics: bits past the end read as zero, each counted as one overrun —
// exactly what k successive nextBit calls would produce.
func (d *Decoder) nextBits(k uint) uint64 {
	if rem := d.r.Remaining(); int64(k) > rem {
		got := uint(rem)
		v, _ := d.r.ReadBits(got)
		d.overruns += int(k - got)
		return v << (k - got)
	}
	v, _ := d.r.ReadBits(k)
	return v
}

// Overruns reports how many bits were read past the end of the stream — a
// desync indicator for the error-resilient codec layer.
func (d *Decoder) Overruns() int { return d.overruns }

// BitPos reports the bits consumed from the underlying reader, including the
// 9-bit initialization prefetch.
func (d *Decoder) BitPos() int64 { return d.r.BitPos() }

// DecodeBit decodes one bit with the adaptive context ctx.
func (d *Decoder) DecodeBit(ctx *Context) int {
	q := (d.rng >> 6) & 3
	rl := rangeLPS[ctx.State][q]
	d.rng -= rl
	var bit int
	if d.offset >= d.rng {
		bit = int(ctx.MPS ^ 1)
		d.offset -= d.rng
		d.rng = rl
		if ctx.State == 0 {
			ctx.MPS ^= 1
		}
		ctx.State = nextLPS[ctx.State]
	} else {
		bit = int(ctx.MPS)
		ctx.State = nextMPS[ctx.State]
	}
	if d.rng < 256 {
		// Batched renormalization: the refill width is known up front, so the
		// range shifts once and the missing offset bits arrive in one read.
		// The one-bit case — every MPS renormalization — skips the batching
		// machinery entirely.
		if k := uint(9 - bits.Len32(d.rng)); k == 1 {
			d.rng <<= 1
			d.offset = d.offset<<1 | uint32(d.nextBit())
		} else {
			d.rng <<= k
			d.offset = d.offset<<k | uint32(d.nextBits(k))
		}
	}
	return bit
}

// DecodeBypass decodes one bypass-coded bit.
func (d *Decoder) DecodeBypass() int {
	d.offset = d.offset<<1 | uint32(d.nextBit())
	if d.offset >= d.rng {
		d.offset -= d.rng
		return 1
	}
	return 0
}
