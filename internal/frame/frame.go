// Package frame provides YUV 4:2:0 video frames and macroblock addressing,
// the pixel-domain substrate shared by the encoder, decoder, synthetic video
// generator and quality metrics.
package frame

import "fmt"

// MBSize is the macroblock edge length in luma pixels, as in H.264.
const MBSize = 16

// Frame is a YUV 4:2:0 picture. The luma plane Y is W×H; the chroma planes
// Cb and Cr are (W/2)×(H/2). W and H must be multiples of MBSize.
type Frame struct {
	W, H      int
	Y, Cb, Cr []uint8
}

// New allocates a zeroed frame. Width and height must be positive multiples
// of MBSize.
func New(w, h int) (*Frame, error) {
	if w <= 0 || h <= 0 || w%MBSize != 0 || h%MBSize != 0 {
		return nil, fmt.Errorf("frame: dimensions %dx%d must be positive multiples of %d", w, h, MBSize)
	}
	return &Frame{
		W: w, H: h,
		Y:  make([]uint8, w*h),
		Cb: make([]uint8, w*h/4),
		Cr: make([]uint8, w*h/4),
	}, nil
}

// MustNew is New panicking on invalid dimensions.
func MustNew(w, h int) *Frame {
	f, err := New(w, h)
	if err != nil {
		panic(err)
	}
	return f
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := MustNew(f.W, f.H)
	copy(g.Y, f.Y)
	copy(g.Cb, f.Cb)
	copy(g.Cr, f.Cr)
	return g
}

// Fill sets every pixel to the given YUV value.
func (f *Frame) Fill(y, cb, cr uint8) {
	for i := range f.Y {
		f.Y[i] = y
	}
	for i := range f.Cb {
		f.Cb[i] = cb
		f.Cr[i] = cr
	}
}

// MBCols returns the number of macroblock columns.
func (f *Frame) MBCols() int { return f.W / MBSize }

// MBRows returns the number of macroblock rows.
func (f *Frame) MBRows() int { return f.H / MBSize }

// LumaAt returns the luma sample at (x, y) with edge clamping, so motion
// compensation may reference slightly out-of-frame pixels as H.264 does.
func (f *Frame) LumaAt(x, y int) uint8 {
	return f.Y[clamp(y, f.H)*f.W+clamp(x, f.W)]
}

// ChromaAt returns the (Cb, Cr) samples at chroma coordinates (x, y) with
// edge clamping.
func (f *Frame) ChromaAt(x, y int) (uint8, uint8) {
	i := clamp(y, f.H/2)*(f.W/2) + clamp(x, f.W/2)
	return f.Cb[i], f.Cr[i]
}

// SetLuma writes the luma sample at (x, y); out-of-frame writes are ignored.
func (f *Frame) SetLuma(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	f.Y[y*f.W+x] = v
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// ClampU8 converts an int to a uint8 pixel with saturation.
func ClampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// MB identifies a macroblock by its (column, row) address.
type MB struct{ X, Y int }

// Index returns the raster-scan index of the macroblock within a frame with
// mbCols macroblock columns.
func (m MB) Index(mbCols int) int { return m.Y*mbCols + m.X }

// MBFromIndex converts a raster-scan index back to an address.
func MBFromIndex(idx, mbCols int) MB { return MB{X: idx % mbCols, Y: idx / mbCols} }

// Sequence is an ordered list of frames at a fixed rate.
type Sequence struct {
	Name   string
	FPS    int
	Frames []*Frame
}

// W returns the luma width of the sequence (0 when empty).
func (s *Sequence) W() int {
	if len(s.Frames) == 0 {
		return 0
	}
	return s.Frames[0].W
}

// H returns the luma height of the sequence (0 when empty).
func (s *Sequence) H() int {
	if len(s.Frames) == 0 {
		return 0
	}
	return s.Frames[0].H
}

// PixelCount returns the total number of luma pixels across all frames.
func (s *Sequence) PixelCount() int64 {
	var n int64
	for _, f := range s.Frames {
		n += int64(f.W) * int64(f.H)
	}
	return n
}

// CopyRows copies an h-row, w-byte-wide rectangle between two strided byte
// planes; dst and src start at the rectangle's top-left sample. It is the
// whole-row primitive of motion compensation and macroblock reconstruction
// wherever no sample needs clamping. Rows of a macroblock (16) or chroma
// block (8) are moved as fixed-size arrays, a register copy each, instead of
// one memmove call per row.
func CopyRows(dst []uint8, dstStride int, src []uint8, srcStride, w, h int) {
	switch w {
	case 16:
		for y := 0; y < h; y++ {
			*(*[16]uint8)(dst[y*dstStride:]) = *(*[16]uint8)(src[y*srcStride:])
		}
	case 8:
		for y := 0; y < h; y++ {
			*(*[8]uint8)(dst[y*dstStride:]) = *(*[8]uint8)(src[y*srcStride:])
		}
	default:
		for y := 0; y < h; y++ {
			copy(dst[y*dstStride:y*dstStride+w], src[y*srcStride:y*srcStride+w])
		}
	}
}
