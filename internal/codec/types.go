// Package codec implements the H.264-class video encoder and decoder used as
// the experimental substrate: I/P/B frames, macroblock partitioning, intra
// and motion-compensated prediction with predictive metadata coding (median
// motion vectors, median-predicted delta-QP), the 4×4 integer transform, and
// CABAC- or CAVLC-style entropy coding.
//
// Beyond encoding and decoding, the codec records for every macroblock its
// exact bit range within the frame payload and its pixel-level reference
// footprints; these records are the input to the VideoApp dependency
// analysis in internal/core. The decoder is error-resilient by construction:
// arbitrarily corrupted payloads decode to damaged pictures (never panics,
// never aborts), reproducing the error-propagation behaviour of a real
// concealing decoder that the paper measures.
package codec

import (
	"fmt"

	"videoapp/internal/frame"
	"videoapp/internal/predict"
)

// FrameType classifies coded frames.
type FrameType int

// Frame types.
const (
	FrameI FrameType = iota
	FrameP
	FrameB
)

func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return fmt.Sprintf("FrameType(%d)", int(t))
	}
}

// EntropyKind selects the entropy-coding backend.
type EntropyKind int

// Entropy coder choices. CABAC is the paper's (deliberately conservative)
// default; CAVLC is the error-resilient alternative discussed in §8.
const (
	CABAC EntropyKind = iota
	CAVLC
)

func (k EntropyKind) String() string {
	if k == CAVLC {
		return "CAVLC"
	}
	return "CABAC"
}

// Params configures the encoder.
type Params struct {
	// CRF is the constant-rate-factor quality target; the paper evaluates
	// 24 (standard), 20 (high) and 16 (very high). It maps to the base QP.
	CRF int
	// GOPSize is the I-frame interval in display frames (checkpoint
	// distance limiting error propagation). Must be >= 1.
	GOPSize int
	// BFrames is the number of B frames between consecutive anchor frames.
	BFrames int
	// BReference allows B frames to be used as references. H.264 provides a
	// flag to disallow it, creating unreferenced frames in which errors
	// cannot propagate (§8); false is that conservative setting.
	BReference bool
	// Entropy selects CABAC (default) or CAVLC.
	Entropy EntropyKind
	// SearchRange bounds motion estimation, in pixels.
	SearchRange int
	// SlicesPerFrame divides each frame into horizontal slice bands, each
	// with its own entropy context and no cross-slice prediction, limiting
	// coding error propagation to the slice at the cost of extra storage
	// (§8). The paper's conservative setting is 1.
	SlicesPerFrame int
	// Deblock enables the in-loop deblocking filter on reconstructed
	// frames (applied identically by encoder and decoder).
	Deblock bool
	// HalfPel enables half-pixel motion compensation (6-tap interpolation);
	// motion vectors are then coded in half-pel units.
	HalfPel bool
}

// DefaultParams returns the paper's standard-quality configuration.
func DefaultParams() Params {
	return Params{
		CRF:         24,
		GOPSize:     60,
		BFrames:     0,
		Entropy:     CABAC,
		SearchRange: 16,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.CRF < 0 || p.CRF > 51 {
		return fmt.Errorf("codec: CRF %d outside 0..51", p.CRF)
	}
	if p.GOPSize < 1 {
		return fmt.Errorf("codec: GOP size %d must be >= 1", p.GOPSize)
	}
	if p.BFrames < 0 || p.BFrames > 7 {
		return fmt.Errorf("codec: BFrames %d outside 0..7", p.BFrames)
	}
	if p.SearchRange < 1 || p.SearchRange > predict.MaxMV {
		return fmt.Errorf("codec: search range %d outside 1..%d", p.SearchRange, predict.MaxMV)
	}
	if p.BFrames > 0 && p.GOPSize%(p.BFrames+1) != 0 {
		return fmt.Errorf("codec: GOP size %d must be a multiple of BFrames+1 = %d", p.GOPSize, p.BFrames+1)
	}
	if p.SlicesPerFrame < 0 || p.SlicesPerFrame > 16 {
		return fmt.Errorf("codec: slices per frame %d outside 0..16", p.SlicesPerFrame)
	}
	return nil
}

// slices normalizes the slice count (0 means the default single slice).
func (p Params) slices() int {
	if p.SlicesPerFrame < 1 {
		return 1
	}
	return p.SlicesPerFrame
}

// CompDep is one compensation dependency: the coded macroblock references
// Pixels pixels of the macroblock at raster index SrcMB in the frame at coded
// index SrcFrame. Weight on the dependency edge is Pixels divided by the
// macroblock area contributed by all deps of the destination MB.
type CompDep struct {
	SrcFrame int32
	SrcMB    int32
	Pixels   uint16
}

// MBRecord is the per-macroblock metadata captured during encoding that the
// VideoApp analysis consumes. It holds no pointer: a frame's records are one
// flat array the garbage collector never scans, and its dependencies a
// window of the frame's Deps (EncodedFrame.MBDeps).
type MBRecord struct {
	// BitStart and BitLen delimit this macroblock's bits within the frame
	// payload. With CABAC, symbol boundaries are attributed at the precision
	// of the arithmetic coder's output (carry-delayed bits are charged to
	// the symbol that flushes them).
	BitStart int64
	BitLen   int32
	// DepOff and DepN locate this macroblock's compensation (and intra
	// reference) dependencies in the frame's Deps.
	DepOff int32
	// MB is the macroblock's raster-scan index.
	MB   int32
	DepN uint16
	// QP is the quantizer actually used (for diagnostics).
	QP int8
	// Intra reports whether the MB was spatially predicted.
	Intra bool
}

// EncodedFrame is one coded frame: a small precisely-stored header plus an
// entropy-coded payload, with per-MB records.
type EncodedFrame struct {
	Type FrameType
	// CodedIdx is the frame's position in coded (stream) order.
	CodedIdx int
	// DisplayIdx is the frame's position in display order.
	DisplayIdx int
	// BaseQP is the frame-level quantizer before per-MB deltas.
	BaseQP int
	// RefFwd and RefBwd are coded indices of the reference frames
	// (-1 when absent).
	RefFwd, RefBwd int
	// Payload is the entropy-coded macroblock data, byte-aligned.
	Payload []byte
	// MBs are the per-macroblock records in scan order.
	MBs []MBRecord
	// Deps holds every macroblock's dependencies, in scan order; a record
	// names its window.
	Deps []CompDep
	// SliceMBStart lists the first macroblock index of each slice; its
	// length is the slice count. A single-slice frame holds {0}.
	SliceMBStart []int
	// SliceByteStart lists each slice's byte offset within Payload.
	SliceByteStart []int

	// syntax is this frame's own record slot (syntax.go), filled by the
	// first decode of a frame that shares it. shared is set by ShareSyntax
	// and names the slot this frame's decodes use. Neither is copied,
	// serialized or compared: Clone, ClonePooled, Unmarshal and the archive
	// reader all produce frames with an empty slot that share nothing.
	syntax SyntaxSlot
	shared *SyntaxSlot
}

// MBDeps returns the dependencies of macroblock record m, a window of Deps.
func (f *EncodedFrame) MBDeps(m int) []CompDep {
	r := &f.MBs[m]
	end := int(r.DepOff) + int(r.DepN)
	return f.Deps[r.DepOff:end:end]
}

// PayloadBits returns the payload length in bits.
func (f *EncodedFrame) PayloadBits() int64 { return int64(len(f.Payload)) * 8 }

// Video is a complete encoded video in coded order.
type Video struct {
	Params Params
	W, H   int
	FPS    int
	Frames []*EncodedFrame

	// arena is non-nil only on videos produced by ClonePooled; Release
	// returns it to the pool.
	arena *cloneArena
}

// TotalPayloadBits sums the entropy-coded payload sizes.
func (v *Video) TotalPayloadBits() int64 {
	var n int64
	for _, f := range v.Frames {
		n += f.PayloadBits()
	}
	return n
}

// HeaderBits returns the total size of the precisely-stored frame headers
// (marshalled form).
func (v *Video) HeaderBits() int64 {
	var n int64
	for _, f := range v.Frames {
		n += int64(len(marshalHeader(f))) * 8
	}
	return n
}

// MBCols returns macroblock columns of the coded picture.
func (v *Video) MBCols() int { return v.W / frame.MBSize }

// MBRows returns macroblock rows of the coded picture.
func (v *Video) MBRows() int { return v.H / frame.MBSize }

// ShiftIndices rebases every frame index in the video by base: coded and
// display indices, header reference indices and per-macroblock dependency
// sources all move together. It is the stitching primitive behind
// GOP-parallel encoding and chunked streaming: a closed-GOP video encoded as
// an independent unit becomes part of a longer video by shifting its indices
// to the unit's global first-frame position. Payload bytes are untouched, so
// shifting never changes what the bits decode to.
func (v *Video) ShiftIndices(base int) {
	for _, f := range v.Frames {
		f.CodedIdx += base
		f.DisplayIdx += base
		if f.RefFwd >= 0 {
			f.RefFwd += base
		}
		if f.RefBwd >= 0 {
			f.RefBwd += base
		}
		for d := range f.Deps {
			f.Deps[d].SrcFrame += int32(base)
		}
	}
}

// Clone returns a deep copy of the video (payload bytes are copied so error
// injection never mutates the original). The copy is laid out in one flat
// arena — a handful of allocations regardless of frame count. ClonePooled is
// the same copy with the arena recycled through a pool.
func (v *Video) Clone() *Video {
	return v.cloneInto(new(cloneArena))
}
