package predict

import (
	"unsafe"

	"videoapp/internal/frame"
)

// padMargin is the width of the replicated border of a Padded plane. Integer
// motion vectors never leave ±MaxMV (motionSearch clamps every candidate),
// and a searched rectangle lies inside the frame, so every candidate
// rectangle of a search lies inside the padded plane.
const padMargin = MaxMV

// Padded is an edge-replicated copy of a reference frame's luma plane,
// extended by MaxMV samples on every side: the sample at (x, y), for x in
// [-MaxMV, W+MaxMV) and y in [-MaxMV, H+MaxMV), is ref.LumaAt(x, y).
//
// Edge clamping is what SADLimit does a row at a time for a rectangle that
// touches a border; on a padded plane it has been done once, for the whole
// frame, so every candidate of a motion search — border or not — is a
// strided rectangle the interior kernel reads directly. An encoder pads each
// reference once, after it is reconstructed, and searches it for every
// partition of every frame that refers to it.
//
// The zero value is empty; Pad fills it.
type Padded struct {
	src    *frame.Frame
	stride int
	pix    []uint8
}

// Pad makes p the padded copy of ref's luma plane, reusing p's buffer when
// it is large enough. p refers to ref afterwards (the half-pel refinement and
// any search the padded plane cannot serve read ref itself), so ref must not
// change while p is in use.
func (p *Padded) Pad(ref *frame.Frame) {
	w, h := ref.W, ref.H
	p.src, p.stride = ref, w+2*padMargin
	n := p.stride * (h + 2*padMargin)
	if cap(p.pix) < n {
		p.pix = make([]uint8, n)
	}
	p.pix = p.pix[:n]
	for y := 0; y < h; y++ {
		row := p.pix[(y+padMargin)*p.stride:][:p.stride]
		src := ref.Y[y*w:][:w]
		fillBytes(row[:padMargin], src[0])
		copy(row[padMargin:], src)
		fillBytes(row[padMargin+w:], src[w-1])
	}
	first := p.pix[padMargin*p.stride:][:p.stride]
	last := p.pix[(padMargin+h-1)*p.stride:][:p.stride]
	for y := 0; y < padMargin; y++ {
		copy(p.pix[y*p.stride:], first)
		copy(p.pix[(padMargin+h+y)*p.stride:], last)
	}
}

func fillBytes(dst []uint8, v uint8) {
	for i := range dst {
		dst[i] = v
	}
}

// MotionSearch is MotionSearch(cur, ref, …) for the ref p was padded from:
// the same candidates in the same order, hence the same vector and the same
// cost, with each candidate's SAD one call of the row kernel on the padded
// plane, and the same precondition: 1 ≤ w, h ≤ frame.MBSize.
func (p *Padded) MotionSearch(cur *frame.Frame, cx, cy, w, h int, pred MV, searchRange int) (MV, int) {
	return motionSearch(cur, p.src, p, cx, cy, w, h, pred, searchRange, MaxMV)
}

// MotionSearchHP finds the best half-pel vector for the w×h rectangle
// (1 ≤ w, h ≤ frame.MBSize) against the ref p was padded from: an integer-pel
// search seeded at the prediction, on the padded plane, followed by a
// one-step half-pel refinement of the eight fractional neighbours, which
// reads ref. pred and the result are in half-pel units.
//
// The stream codes half-pel vectors and their differences from pred in the
// same ±MaxMV units as full-pel ones, and the decoder saturates both. The
// search therefore stays where the decoder follows: the integer stage within
// ±MaxMV/2 pixels and within MaxMV/2-1 pixels of the prediction (doubling
// then leaves room for the half step), the refinement within ±MaxMV units of
// both zero and pred. A larger searchRange reaches no further.
func (p *Padded) MotionSearchHP(cur *frame.Frame, cx, cy, w, h int, pred MV, searchRange int) (MV, int) {
	intPred := MV{X: pred.X / 2, Y: pred.Y / 2}
	intBest, _ := motionSearch(cur, p.src, p, cx, cy, w, h, intPred, min(searchRange, MaxMV/2-1), MaxMV/2)
	return refineHP(cur, p.src, cx, cy, w, h, pred, intBest)
}

// paddedRect is the view a search of one rectangle has of a padded
// reference: the rectangle of cur, and the reference rectangle of the zero
// vector, from which every candidate is a pointer offset. A candidate
// rectangle lies inside the margin, where the padded samples are the
// clamped ones, so its SAD is SADLimit's number, early-terminated ones
// included.
type paddedRect struct {
	kern    rowKernel
	a       *uint8
	aStride int
	origin  unsafe.Pointer
	stride  int
}

// rect returns the view of the w×h rectangle of cur at (cx, cy) for vectors
// within ±maxMV (at most ±MaxMV, the margin), and false when the padded
// plane cannot serve them all: the rectangle must lie inside both cur and
// the reference. The searches' precondition bounds its size to a
// partition's. Bounds are checked here once, over the span every such
// vector reaches.
func (p *Padded) rect(cur *frame.Frame, cx, cy, w, h int, maxMV int16) (paddedRect, bool) {
	if w <= 0 || h <= 0 || !interior(cur, cx, cy, w, h) || !interior(p.src, cx, cy, w, h) {
		return paddedRect{}, false
	}
	at := (cy+padMargin)*p.stride + cx + padMargin
	m := int(maxMV)
	_, _ = p.pix[at-m*p.stride-m], p.pix[at+(m+h-1)*p.stride+m+w-1]
	return paddedRect{
		kern: rowKernelFor(w), a: &cur.Y[cy*cur.W+cx], aStride: cur.W,
		origin: unsafe.Pointer(&p.pix[at]), stride: p.stride,
	}, true
}

// rowKernel is sadRows for rows of one fixed width, on pointers to the first
// sample of each rectangle; the caller has checked that every row it reads
// lies inside its plane.
type rowKernel func(a *uint8, aStride int, b *uint8, bStride int, h, limit int) int

// swarKernels[w] is the portable row kernel sadRowsSWAR as a rowKernel for
// rows of w bytes, w up to a macroblock wide.
var swarKernels = func() (k [frame.MBSize + 1]rowKernel) {
	for w := 1; w <= frame.MBSize; w++ {
		k[w] = func(a *uint8, aStride int, b *uint8, bStride int, h, limit int) int {
			return sadRowsSWAR(unsafe.Slice(a, (h-1)*aStride+w), aStride, unsafe.Slice(b, (h-1)*bStride+w), bStride, w, h, limit)
		}
	}
	return k
}()
