package entropy

import "videoapp/internal/bitio"

// SyntaxClass identifies the syntax element being coded. The CABAC backend
// maintains a separate set of adaptive contexts per class, mirroring how
// H.264 models each macroblock field independently.
type SyntaxClass int

// Syntax element classes used by the codec.
const (
	ClassMBType SyntaxClass = iota
	ClassIntraMode
	ClassPartition
	ClassRefIdx
	ClassMVX
	ClassMVY
	ClassDQP
	ClassCBP
	ClassCoeffFlag
	ClassCoeffLevel
	ClassCoeffRun
	ClassEOB
	numClasses
)

// prefixContexts is the number of adaptive contexts per class: one per
// unary-prefix position, with the tail sharing the last context.
const prefixContexts = 4

// prefixCap is the unary prefix length beyond which values switch to a
// bypass-coded exp-Golomb suffix (UEG binarization, as in H.264 MVD coding).
const prefixCap = 12

// suffixCapBits bounds the exp-Golomb suffix length a decoder will accept;
// corrupted streams otherwise produce astronomically long suffixes.
const suffixCapBits = 24

// SymbolWriter is the encoder-side entropy backend interface.
type SymbolWriter interface {
	// PutUVal codes an unsigned value in the given class.
	PutUVal(c SyntaxClass, v uint32)
	// PutSVal codes a signed value in the given class.
	PutSVal(c SyntaxClass, v int32)
	// PutFlag codes a single boolean.
	PutFlag(c SyntaxClass, b bool)
	// WriteResidualBlock codes one quantized 4×4 block: its nonzero count,
	// then a (zero run, level) pair per nonzero coefficient in zig-zag
	// order. nnz must be the number of nonzero levels in blk — the count
	// the quantizer reports (transform.ForwardQuantize).
	WriteResidualBlock(blk *[16]int32, nnz int)
	// BitPos reports the number of bits emitted to the underlying writer.
	BitPos() int64
	// Flush terminates the payload and byte-aligns the writer.
	Flush()
}

// SymbolReader is the decoder-side entropy backend interface. Readers never
// fail: on corruption or stream exhaustion they keep producing (garbage)
// values and raise the Desynced flag, so the codec can decode damaged
// streams end-to-end the way a concealing video decoder does.
type SymbolReader interface {
	GetUVal(c SyntaxClass) uint32
	GetSVal(c SyntaxClass) int32
	GetFlag(c SyntaxClass) bool
	// ReadResidualBlock decodes one 4×4 block into blk, clamping every
	// field so corrupt streams yield garbage-but-bounded coefficients. It
	// reports whether any level was stored: false guarantees blk is
	// all-zero, so reconstruction may skip the block without scanning it
	// (true is conservative — a corrupt stream can store a level of zero).
	ReadResidualBlock(blk *[16]int32) (coded bool)
	// Desynced reports whether the reader has detected it is no longer
	// aligned with a valid stream (overrun or capped suffix).
	Desynced() bool
	// BitPos reports the number of bits consumed from the underlying
	// stream (for the arithmetic backend this includes its fixed 9-bit
	// prefetch and renormalization lookahead, so positions are attribution
	// estimates accurate to within a few bits).
	BitPos() int64
}

// --- CABAC backend ---

// CABACWriter codes symbols with the adaptive binary arithmetic coder.
type CABACWriter struct {
	enc  Encoder
	ctxs [numClasses][prefixContexts]Context
}

// NewCABACWriter returns a writer with freshly initialized contexts.
// Contexts start at the equiprobable state, as at the top of each frame.
func NewCABACWriter(w *bitio.Writer) *CABACWriter {
	cw := new(CABACWriter)
	cw.enc.start(w)
	return cw
}

// PutUVal implements SymbolWriter using UEG binarization: a context-coded
// truncated-unary prefix followed by a bypass exp-Golomb suffix.
func (cw *CABACWriter) PutUVal(c SyntaxClass, v uint32) {
	ctxs := &cw.ctxs[c]
	// Cap while v is still a uint32: int(v) is negative past 1<<31 on a
	// 32-bit int.
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
func (cw *CABACWriter) PutSVal(c SyntaxClass, v int32) {
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
func (cw *CABACWriter) PutFlag(c SyntaxClass, b bool) {
	bit := 0
	if b {
		bit = 1
	}
	cw.enc.EncodeBit(&cw.ctxs[c][0], bit)
}

// BitPos implements SymbolWriter: the position of every bit that can no
// longer change (Encoder.BitPos).
func (cw *CABACWriter) BitPos() int64 { return cw.enc.BitPos() }

// Flush implements SymbolWriter.
func (cw *CABACWriter) Flush() { cw.enc.Flush() }

func (cw *CABACWriter) putBypassEG(v uint32) {
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

// CABACReader decodes symbols coded by CABACWriter.
type CABACReader struct {
	dec      Decoder
	ctxs     [numClasses][prefixContexts]Context
	desynced bool
}

// NewCABACReader returns a reader over the rest of r's stream with freshly
// initialized contexts.
func NewCABACReader(r *bitio.Reader) *CABACReader {
	cr := new(CABACReader)
	cr.dec.reset(r.Buffer(), r.BitPos())
	return cr
}

// Reset restarts the reader over buf with freshly initialized contexts,
// exactly the state NewCABACReader(bitio.NewReader(buf)) starts in, without
// allocating: the decoder resets one reader per slice instead of building
// three objects.
func (cr *CABACReader) Reset(buf []byte) {
	cr.dec.reset(buf, 0)
	cr.ctxs = [numClasses][prefixContexts]Context{}
	cr.desynced = false
}

// GetUVal implements SymbolReader.
func (cr *CABACReader) GetUVal(c SyntaxClass) uint32 {
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
func (cr *CABACReader) GetSVal(c SyntaxClass) int32 {
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
func (cr *CABACReader) GetFlag(c SyntaxClass) bool {
	b := cr.dec.DecodeBit(&cr.ctxs[c][0]) == 1
	cr.noteOverruns()
	return b
}

// Desynced implements SymbolReader.
func (cr *CABACReader) Desynced() bool { return cr.desynced }

// BitPos implements SymbolReader.
func (cr *CABACReader) BitPos() int64 { return cr.dec.BitPos() }

func (cr *CABACReader) noteOverruns() {
	// A handful of overrun bits is normal (flush padding); sustained
	// reading past the end means the stream structure is broken.
	if cr.dec.Overruns() > 16 {
		cr.desynced = true
	}
}

func (cr *CABACReader) getBypassEG() uint32 {
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

func ctxIdx(i int) int {
	if i >= prefixContexts {
		return prefixContexts - 1
	}
	return i
}

// --- CAVLC backend ---

// CAVLCWriter codes symbols with static exp-Golomb codes (no adaptation, no
// arithmetic coding), the error-resilient alternative entropy coder.
type CAVLCWriter struct{ w *bitio.Writer }

// NewCAVLCWriter returns a CAVLC-style writer over w.
func NewCAVLCWriter(w *bitio.Writer) *CAVLCWriter { return &CAVLCWriter{w: w} }

// PutUVal implements SymbolWriter.
func (vw *CAVLCWriter) PutUVal(_ SyntaxClass, v uint32) { vw.w.WriteUE(v) }

// PutSVal implements SymbolWriter.
func (vw *CAVLCWriter) PutSVal(_ SyntaxClass, v int32) { vw.w.WriteSE(v) }

// PutFlag implements SymbolWriter.
func (vw *CAVLCWriter) PutFlag(_ SyntaxClass, b bool) { vw.w.WriteBool(b) }

// BitPos implements SymbolWriter.
func (vw *CAVLCWriter) BitPos() int64 { return vw.w.BitPos() }

// Flush implements SymbolWriter.
func (vw *CAVLCWriter) Flush() { vw.w.AlignByte() }

// CAVLCReader decodes symbols coded by CAVLCWriter.
type CAVLCReader struct {
	r        *bitio.Reader
	desynced bool
	br       bitio.Reader // the stream when positioned by Reset
}

// NewCAVLCReader returns a CAVLC-style reader over r.
func NewCAVLCReader(r *bitio.Reader) *CAVLCReader { return &CAVLCReader{r: r} }

// Reset restarts the reader over buf without allocating, the CAVLC
// counterpart of CABACReader.Reset. The reader must not be copied after its
// first Reset.
func (vr *CAVLCReader) Reset(buf []byte) {
	vr.br.Reset(buf)
	vr.r = &vr.br
	vr.desynced = false
}

// GetUVal implements SymbolReader.
func (vr *CAVLCReader) GetUVal(_ SyntaxClass) uint32 {
	v, err := vr.r.ReadUE()
	if err != nil {
		vr.desynced = true
		return 0
	}
	return v
}

// GetSVal implements SymbolReader.
func (vr *CAVLCReader) GetSVal(_ SyntaxClass) int32 {
	v, err := vr.r.ReadSE()
	if err != nil {
		vr.desynced = true
		return 0
	}
	return v
}

// GetFlag implements SymbolReader.
func (vr *CAVLCReader) GetFlag(_ SyntaxClass) bool {
	b, err := vr.r.ReadBool()
	if err != nil {
		vr.desynced = true
		return false
	}
	return b
}

// Desynced implements SymbolReader.
func (vr *CAVLCReader) Desynced() bool { return vr.desynced }

// BitPos implements SymbolReader.
func (vr *CAVLCReader) BitPos() int64 { return vr.r.BitPos() }
