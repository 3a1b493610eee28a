package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"videoapp/internal/bitio"
	"videoapp/internal/entropy"
	"videoapp/internal/frame"
	"videoapp/internal/predict"
	"videoapp/internal/transform"
)

// Macroblock type codes as coded in the bitstream. I-frames code no MB type
// (always intra).
const (
	mbSkip      = 0 // P only: 16x16 with predicted MV, no residual
	mbInter16   = 1
	mbIntra     = 2
	mbInter16x8 = 3
	mbInter8x16 = 4
	mbInter8x8  = 5
	mbInter8x4  = 6
	mbInter4x8  = 7
	mbInter4x4  = 8
	numMBTypes  = 9
)

func mbTypeToShape(t int) predict.PartitionShape {
	switch t {
	case mbInter16x8:
		return predict.Part16x8
	case mbInter8x16:
		return predict.Part8x16
	case mbInter8x8:
		return predict.Part8x8
	case mbInter8x4:
		return predict.Part8x4
	case mbInter4x8:
		return predict.Part4x8
	case mbInter4x4:
		return predict.Part4x4
	default:
		return predict.Part16x16
	}
}

func shapeToMBType(s predict.PartitionShape) int {
	switch s {
	case predict.Part16x8:
		return mbInter16x8
	case predict.Part8x16:
		return mbInter8x16
	case predict.Part8x8:
		return mbInter8x8
	case predict.Part8x4:
		return mbInter8x4
	case predict.Part4x8:
		return mbInter4x8
	case predict.Part4x4:
		return mbInter4x4
	default:
		return mbInter16
	}
}

// B-frame partition prediction directions.
const (
	dirFwd = 0
	dirBwd = 1
	dirBi  = 2
)

// writeResidualBlock codes one quantized 4×4 block as a nonzero count
// followed by (zero-run, level) pairs in zig-zag order; nnz is the count,
// as transform.ForwardQuantize reports it. The syntax lives in the entropy
// backends, which code a block per call (entropy/residual.go).
func writeResidualBlock(sw entropy.SymbolWriter, blk *transform.Block, nnz int) {
	sw.WriteResidualBlock((*[16]int32)(blk), nnz)
}

// readResidualBlock decodes one 4×4 block into blk, clamping every field so
// corrupt streams yield garbage-but-bounded coefficients. It reports whether
// any level was stored: false guarantees blk is all-zero, so reconstruction
// may skip the block without scanning it (true is conservative — a corrupt
// stream can store a level of zero).
func readResidualBlock(sr entropy.SymbolReader, blk *transform.Block) (coded bool) {
	return sr.ReadResidualBlock((*[16]int32)(blk))
}

// newSymbolWriter builds the configured entropy backend over w.
func newSymbolWriter(kind EntropyKind, w *bitio.Writer) entropy.SymbolWriter {
	if kind == CAVLC {
		return entropy.NewCAVLCWriter(w)
	}
	return entropy.NewCABACWriter(w)
}

// newSymbolReader builds the configured entropy backend over r.
func newSymbolReader(kind EntropyKind, r *bitio.Reader) entropy.SymbolReader {
	if kind == CAVLC {
		return entropy.NewCAVLCReader(r)
	}
	return entropy.NewCABACReader(r)
}

// marshalHeader serializes the precisely-stored frame header: everything the
// decoder needs before touching the (approximately stored) payload.
func marshalHeader(f *EncodedFrame) []byte {
	w := bitio.NewWriter()
	w.WriteBits(uint64(f.Type), 2)
	w.WriteUE(uint32(f.CodedIdx))
	w.WriteUE(uint32(f.DisplayIdx))
	w.WriteBits(uint64(f.BaseQP), 6)
	w.WriteUE(uint32(f.RefFwd + 1)) // -1 encodes as 0
	w.WriteUE(uint32(f.RefBwd + 1))
	w.WriteUE(uint32(len(f.Payload)))
	w.WriteUE(uint32(len(f.SliceMBStart)))
	for i := range f.SliceMBStart {
		w.WriteUE(uint32(f.SliceMBStart[i]))
		w.WriteUE(uint32(f.SliceByteStart[i]))
	}
	w.AlignByte()
	return w.Bytes()
}

// errBadHeader reports a header that cannot be parsed. Headers are stored
// precisely, so this indicates misuse rather than storage errors.
var errBadHeader = errors.New("codec: malformed frame header")

// unmarshalHeader parses a header produced by marshalHeader into f,
// returning the payload byte length.
func unmarshalHeader(buf []byte, f *EncodedFrame) (payloadLen int, err error) {
	r := bitio.NewReader(buf)
	ft, err := r.ReadBits(2)
	if err != nil {
		return 0, errBadHeader
	}
	f.Type = FrameType(ft)
	ci, err := r.ReadUE()
	if err != nil {
		return 0, errBadHeader
	}
	di, err := r.ReadUE()
	if err != nil {
		return 0, errBadHeader
	}
	qp, err := r.ReadBits(6)
	if err != nil {
		return 0, errBadHeader
	}
	rf, err := r.ReadUE()
	if err != nil {
		return 0, errBadHeader
	}
	rb, err := r.ReadUE()
	if err != nil {
		return 0, errBadHeader
	}
	pl, err := r.ReadUE()
	if err != nil {
		return 0, errBadHeader
	}
	// Every field below becomes an int: past math.MaxInt32 it would be
	// negative on a 32-bit platform and not on a 64-bit one.
	if max(ci, di, rf, rb, pl) > math.MaxInt32 {
		return 0, errBadHeader
	}
	nSlices, err := r.ReadUE()
	if err != nil || nSlices > 16 {
		return 0, errBadHeader
	}
	f.SliceMBStart, f.SliceByteStart = nil, nil
	if nSlices > 0 {
		// Both slice tables share one allocation, each capped to its half.
		tab := make([]int, 2*nSlices)
		f.SliceMBStart, f.SliceByteStart = tab[:0:nSlices], tab[nSlices:nSlices]
	}
	for i := uint32(0); i < nSlices; i++ {
		ms, err := r.ReadUE()
		if err != nil {
			return 0, errBadHeader
		}
		bs, err := r.ReadUE()
		if err != nil || max(ms, bs) > math.MaxInt32 {
			return 0, errBadHeader
		}
		f.SliceMBStart = append(f.SliceMBStart, int(ms))
		f.SliceByteStart = append(f.SliceByteStart, int(bs))
	}
	f.CodedIdx = int(ci)
	f.DisplayIdx = int(di)
	f.BaseQP = int(qp)
	f.RefFwd = int(rf) - 1
	f.RefBwd = int(rb) - 1
	return int(pl), nil
}

// chromaIntraPredict writes flat DC 8×8 chroma predictions, from the
// neighboring reconstructed chroma samples, into dstCb and dstCr, whose rows
// are stride bytes apart — the macroblock's own place in rec's chroma planes
// included: the neighbours are read before anything is written.
func chromaIntraPredict(dstCb, dstCr []uint8, stride int, rec *frame.Frame, mbx, mby int, hasAbove, hasLeft bool) {
	cx0, cy0 := mbx*8, mby*8
	sumB, sumR, n := 0, 0, 0
	if hasAbove {
		for x := 0; x < 8; x++ {
			cb, cr := rec.ChromaAt(cx0+x, cy0-1)
			sumB += int(cb)
			sumR += int(cr)
		}
		n += 8
	}
	if hasLeft {
		for y := 0; y < 8; y++ {
			cb, cr := rec.ChromaAt(cx0-1, cy0+y)
			sumB += int(cb)
			sumR += int(cr)
		}
		n += 8
	}
	db, dr := uint64(128), uint64(128)
	if n > 0 {
		db = uint64((sumB + n/2) / n)
		dr = uint64((sumR + n/2) / n)
	}
	const splat = 0x0101010101010101
	for y := 0; y < 8; y++ {
		binary.LittleEndian.PutUint64(dstCb[y*stride:], db*splat)
		binary.LittleEndian.PutUint64(dstCr[y*stride:], dr*splat)
	}
}

// qpPrediction returns the median-of-neighbors QP prediction described in
// §3 of the paper: the median of the QPs of MBs A (left), B (above) and
// C (above-right), falling back to the frame base QP.
func qpPrediction(qps []int, mbx, mby, mbCols, baseQP, sliceTop int) int {
	var vals [3]int
	n := 0
	for _, nb := range [3][2]int{{mbx - 1, mby}, {mbx, mby - 1}, {mbx + 1, mby - 1}} {
		if x, y := nb[0], nb[1]; x >= 0 && y >= sliceTop && x < mbCols {
			vals[n] = qps[y*mbCols+x]
			n++
		}
	}
	switch n {
	case 0:
		return baseQP
	case 1:
		return vals[0]
	case 2:
		return (vals[0] + vals[1]) / 2
	default:
		return median3i(vals[0], vals[1], vals[2])
	}
}

func median3i(a, b, c int) int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// mvPrediction returns the median MV prediction from per-MB representative
// vectors. avail marks MBs coded as inter so far.
func mvPrediction(mvs []predict.MV, avail []bool, mbx, mby, mbCols, sliceTop int) predict.MV {
	get := func(x, y int) (predict.MV, bool) {
		if x < 0 || y < sliceTop || x >= mbCols {
			return predict.MV{}, false
		}
		i := y*mbCols + x
		if !avail[i] {
			return predict.MV{}, false
		}
		return mvs[i], true
	}
	a, okA := get(mbx-1, mby)
	b, okB := get(mbx, mby-1)
	c, okC := get(mbx+1, mby-1)
	return predict.MedianMV(a, b, c, okA, okB, okC)
}

func validFrameRef(n, count int) bool { return n >= 0 && n < count }

// checkGeometry reports a frame size that is not a positive multiple of the
// macroblock size.
func checkGeometry(w, h int) error {
	if w <= 0 || h <= 0 || w%frame.MBSize != 0 || h%frame.MBSize != 0 {
		return fmt.Errorf("codec: frame size %dx%d not macroblock aligned", w, h)
	}
	return nil
}
