package entropy

import (
	"math"
	"math/bits"

	"videoapp/internal/bitio"
)

// The arithmetic coder and the CABAC symbol layer as they stood before the
// windowed/byte-wise rewrite, kept verbatim as test oracles (identifiers
// prefixed ref): the coder that asks bitio for every renormalisation bit and
// writes every resolved bit through WriteBit, its probability tables as
// three separate arrays, the two-field context, and the per-symbol CABAC
// reader and writer on top of them. The differential tests
// (differential_test.go) hold the production coder to these bin for bin,
// byte for byte, and position for position.

// Probability FSM tables, generated in init from the CABAC design formula.
var (
	// refRangeLPS[state][q] is the sub-range width assigned to the LPS when the
	// current 9-bit range falls in quantization cell q.
	refRangeLPS [numStates][4]uint32
	// refNextMPS[state] and refNextLPS[state] are the state transitions after
	// coding an MPS or LPS respectively.
	refNextMPS [numStates]uint8
	refNextLPS [numStates]uint8
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
			refRangeLPS[s][q] = v
		}
		if s < numStates-1 {
			refNextMPS[s] = uint8(s + 1)
		} else {
			refNextMPS[s] = uint8(s)
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
		refNextLPS[s] = uint8(best)
	}
}

// refContext is Context as it was: the FSM state and the current
// most-probable symbol as two fields.
type refContext struct {
	State uint8
	MPS   uint8
}

// refEncoder is the binary arithmetic encoder.
type refEncoder struct {
	w           *bitio.Writer
	low         uint32
	rng         uint32
	outstanding int
	first       bool
}

// newRefEncoder returns an encoder writing to w. The caller should byte-align w
// before starting a new arithmetic-coded payload.
func newRefEncoder(w *bitio.Writer) *refEncoder {
	return &refEncoder{w: w, rng: 510, first: true}
}

func (e *refEncoder) putBit(b int) {
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

func (e *refEncoder) renorm() {
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
func (e *refEncoder) EncodeBit(ctx *refContext, bit int) {
	q := (e.rng >> 6) & 3
	rl := refRangeLPS[ctx.State][q]
	e.rng -= rl
	if uint8(bit) == ctx.MPS {
		ctx.State = refNextMPS[ctx.State]
	} else {
		e.low += e.rng
		e.rng = rl
		if ctx.State == 0 {
			ctx.MPS ^= 1
		}
		ctx.State = refNextLPS[ctx.State]
	}
	e.renorm()
}

// EncodeBypass codes one equiprobable bit without touching any context.
func (e *refEncoder) EncodeBypass(bit int) {
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
func (e *refEncoder) Flush() {
	e.rng = 2
	e.renorm()
	e.putBit(int(e.low >> 9 & 1))
	e.w.WriteBits(uint64(e.low>>7&3|1), 2)
	// Trailing padding guarantees the decoder's 9-bit prefetch never starves
	// inside the meaningful part of the stream.
	e.w.WriteBits(0, 9)
	e.w.AlignByte()
}

// refDecoder is the binary arithmetic decoder. It is deliberately forgiving:
// reads past the end of the buffer produce zero bits (and are counted) so
// that corrupted streams decode to garbage rather than aborting, mirroring
// a real error-concealing video decoder.
type refDecoder struct {
	r        *bitio.Reader
	rng      uint32
	offset   uint32
	overruns int
}

// newRefDecoder initializes a decoder from r, consuming the 9-bit prefetch.
func newRefDecoder(r *bitio.Reader) *refDecoder {
	d := new(refDecoder)
	d.reset(r)
	return d
}

// reset restarts the decoder over r, consuming the 9-bit prefetch.
func (d *refDecoder) reset(r *bitio.Reader) {
	*d = refDecoder{r: r, rng: 510}
	d.offset = uint32(d.nextBits(9))
}

func (d *refDecoder) nextBit() int {
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
func (d *refDecoder) nextBits(k uint) uint64 {
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
func (d *refDecoder) Overruns() int { return d.overruns }

// BitPos reports the bits consumed from the underlying reader, including the
// 9-bit initialization prefetch.
func (d *refDecoder) BitPos() int64 { return d.r.BitPos() }

// DecodeBit decodes one bit with the adaptive context ctx.
func (d *refDecoder) DecodeBit(ctx *refContext) int {
	q := (d.rng >> 6) & 3
	rl := refRangeLPS[ctx.State][q]
	d.rng -= rl
	var bit int
	if d.offset >= d.rng {
		bit = int(ctx.MPS ^ 1)
		d.offset -= d.rng
		d.rng = rl
		if ctx.State == 0 {
			ctx.MPS ^= 1
		}
		ctx.State = refNextLPS[ctx.State]
	} else {
		bit = int(ctx.MPS)
		ctx.State = refNextMPS[ctx.State]
	}
	if d.rng < 256 {
		// Batched renormalization: the refill width is known up front, so the
		// range shifts once and the missing offset bits arrive in one read.
		// The one-bit case — every MPS renormalization — skips the batching
		// machinery entirely. [Kept as written, but the claim is wrong: an
		// MPS in states 0-2 can leave a range of 112-127 and shift two bits.
		// The code below never relied on it; arith.go states it correctly.]
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
func (d *refDecoder) DecodeBypass() int {
	d.offset = d.offset<<1 | uint32(d.nextBit())
	if d.offset >= d.rng {
		d.offset -= d.rng
		return 1
	}
	return 0
}

// --- CABAC backend ---

// refCABACWriter codes symbols with the adaptive binary arithmetic coder.
type refCABACWriter struct {
	w    *bitio.Writer
	enc  *refEncoder
	ctxs [numClasses][prefixContexts]refContext
}

// newRefCABACWriter returns a writer with freshly initialized contexts.
// Contexts start at the equiprobable state, as at the top of each frame.
func newRefCABACWriter(w *bitio.Writer) *refCABACWriter {
	return &refCABACWriter{w: w, enc: newRefEncoder(w)}
}

// PutUVal implements SymbolWriter using UEG binarization: a context-coded
// truncated-unary prefix followed by a bypass exp-Golomb suffix.
func (cw *refCABACWriter) PutUVal(c SyntaxClass, v uint32) {
	ctxs := &cw.ctxs[c]
	n := prefixCap
	if v < prefixCap {
		n = int(v)
	}
	for i := 0; i < n; i++ {
		cw.enc.EncodeBit(&ctxs[ctxIdx(i)], 1)
	}
	if n < prefixCap {
		cw.enc.EncodeBit(&ctxs[ctxIdx(n)], 0)
		return
	}
	cw.putBypassEG(v - prefixCap)
}

// PutSVal maps the signed value to unsigned order 0,1,-1,2,-2,... and codes
// the magnitude with contexts plus the sign in bypass.
func (cw *refCABACWriter) PutSVal(c SyntaxClass, v int32) {
	mag := v
	if mag < 0 {
		mag = -mag
	}
	cw.PutUVal(c, uint32(mag))
	if mag != 0 {
		sign := 0
		if v < 0 {
			sign = 1
		}
		cw.enc.EncodeBypass(sign)
	}
}

// PutFlag codes one context-modeled bit.
func (cw *refCABACWriter) PutFlag(c SyntaxClass, b bool) {
	bit := 0
	if b {
		bit = 1
	}
	cw.enc.EncodeBit(&cw.ctxs[c][0], bit)
}

// BitPos implements SymbolWriter.
func (cw *refCABACWriter) BitPos() int64 { return cw.w.BitPos() }

// Flush implements SymbolWriter.
func (cw *refCABACWriter) Flush() { cw.enc.Flush() }

func (cw *refCABACWriter) putBypassEG(v uint32) {
	x := uint64(v) + 1
	n := 0
	for t := x; t > 1; t >>= 1 {
		n++
	}
	for i := 0; i < n; i++ {
		cw.enc.EncodeBypass(1)
	}
	cw.enc.EncodeBypass(0)
	for i := n - 1; i >= 0; i-- {
		cw.enc.EncodeBypass(int(x >> uint(i) & 1))
	}
}

// refCABACReader decodes symbols coded by refCABACWriter.
type refCABACReader struct {
	dec      refDecoder
	ctxs     [numClasses][prefixContexts]refContext
	desynced bool
	br       bitio.Reader // the stream when positioned by Reset
}

// newRefCABACReader returns a reader over r with freshly initialized contexts.
func newRefCABACReader(r *bitio.Reader) *refCABACReader {
	cr := new(refCABACReader)
	cr.dec.reset(r)
	return cr
}

// Reset restarts the reader over buf with freshly initialized contexts,
// exactly the state newRefCABACReader(bitio.NewReader(buf)) starts in, without
// allocating: the decoder resets one reader per slice instead of building
// three objects. The reader must not be copied after its first Reset.
func (cr *refCABACReader) Reset(buf []byte) {
	cr.br.Reset(buf)
	cr.dec.reset(&cr.br)
	cr.ctxs = [numClasses][prefixContexts]refContext{}
	cr.desynced = false
}

// GetUVal implements SymbolReader.
func (cr *refCABACReader) GetUVal(c SyntaxClass) uint32 {
	ctxs := &cr.ctxs[c]
	n := 0
	for n < prefixCap && cr.dec.DecodeBit(&ctxs[ctxIdx(n)]) == 1 {
		n++
	}
	if n < prefixCap {
		cr.noteOverruns()
		return uint32(n)
	}
	v := cr.getBypassEG()
	cr.noteOverruns()
	return prefixCap + v
}

// GetSVal implements SymbolReader.
func (cr *refCABACReader) GetSVal(c SyntaxClass) int32 {
	mag := cr.GetUVal(c)
	if mag == 0 {
		return 0
	}
	if cr.dec.DecodeBypass() == 1 {
		return -int32(mag)
	}
	return int32(mag)
}

// GetFlag implements SymbolReader.
func (cr *refCABACReader) GetFlag(c SyntaxClass) bool {
	b := cr.dec.DecodeBit(&cr.ctxs[c][0]) == 1
	cr.noteOverruns()
	return b
}

// Desynced implements SymbolReader.
func (cr *refCABACReader) Desynced() bool { return cr.desynced }

// BitPos implements SymbolReader.
func (cr *refCABACReader) BitPos() int64 { return cr.dec.BitPos() }

func (cr *refCABACReader) noteOverruns() {
	// A handful of overrun bits is normal (flush padding); sustained
	// reading past the end means the stream structure is broken.
	if cr.dec.Overruns() > 16 {
		cr.desynced = true
	}
}

func (cr *refCABACReader) getBypassEG() uint32 {
	n := 0
	for cr.dec.DecodeBypass() == 1 {
		n++
		if n > suffixCapBits {
			cr.desynced = true
			return 0
		}
	}
	var rest uint64
	for i := 0; i < n; i++ {
		rest = rest<<1 | uint64(cr.dec.DecodeBypass())
	}
	return uint32(uint64(1)<<uint(n) + rest - 1)
}

// refZigzag4 and refMaxLevel are the scan order and level bound of the
// residual syntax, as internal/codec defined them.
var refZigzag4 = [16]int{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}

const refMaxLevel = 1 << 15

// refWriteResidualBlock is the per-symbol residual writer internal/codec
// had: a nonzero count followed by (zero-run, level) pairs in zig-zag order,
// one interface call per symbol.
func refWriteResidualBlock(sw interface {
	PutUVal(c SyntaxClass, v uint32)
	PutSVal(c SyntaxClass, v int32)
}, blk *[16]int32) {
	nnz := 0
	for _, v := range blk {
		if v != 0 {
			nnz++
		}
	}
	sw.PutUVal(ClassCoeffFlag, uint32(nnz))
	run := 0
	for _, pos := range refZigzag4 {
		v := blk[pos]
		if v == 0 {
			run++
			continue
		}
		sw.PutUVal(ClassCoeffRun, uint32(run))
		sw.PutSVal(ClassCoeffLevel, v)
		run = 0
		nnz--
		if nnz == 0 {
			break
		}
	}
}

// refReadResidualBlock is the per-symbol residual reader internal/codec had.
func refReadResidualBlock(sr interface {
	GetUVal(c SyntaxClass) uint32
	GetSVal(c SyntaxClass) int32
}, blk *[16]int32) (coded bool) {
	*blk = [16]int32{}
	nnz := int(min(sr.GetUVal(ClassCoeffFlag), 16))
	scan := 0
	for i := 0; i < nnz; i++ {
		scan += int(min(sr.GetUVal(ClassCoeffRun), 16))
		if scan >= 16 {
			break
		}
		level := sr.GetSVal(ClassCoeffLevel)
		if level > refMaxLevel {
			level = refMaxLevel
		}
		if level < -refMaxLevel {
			level = -refMaxLevel
		}
		blk[refZigzag4[scan]] = level
		coded = true
		scan++
		if scan >= 16 {
			break
		}
	}
	return coded
}
