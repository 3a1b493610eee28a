package codec

import "sync"

// The §6.4 Monte-Carlo methodology clones the whole video once per storage
// round trip — 30 runs per video per design point — so the deep copy is a
// measured hot path. Two mechanisms keep it off the garbage collector:
//
//   - Clone lays every copied frame out in one flat arena (one payload
//     buffer, one frame array, one macroblock-record array, one int array)
//     instead of four-plus allocations per frame. The records hold no
//     pointer, so their copy is a plain memmove; the dependency arrays they
//     index are shared with the original.
//
//   - ClonePooled draws that arena from a sync.Pool; Release returns it.
//     A released video's buffers are reused by later clones, so steady-state
//     round-trip loops allocate nothing for the copy.
//
// The two forms produce bit-identical videos; pooling only changes where the
// backing memory comes from.

// cloneArena is the backing storage of one cloned video. Sub-slices handed
// to frames use full slice expressions, so an accidental append never bleeds
// into a neighbouring frame's range.
type cloneArena struct {
	payload []byte
	frames  []EncodedFrame
	ptrs    []*EncodedFrame
	mbs     []MBRecord
	ints    []int
}

var arenaPool = sync.Pool{New: func() any { return new(cloneArena) }}

// arenaSlice returns s resized to n, reallocating only when the capacity is
// insufficient (the pool's reuse path).
func arenaSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cloneInto deep-copies v using a's buffers, growing them as needed.
func (v *Video) cloneInto(a *cloneArena) *Video {
	var payloadN, mbN, intN int
	for _, f := range v.Frames {
		payloadN += len(f.Payload)
		mbN += len(f.MBs)
		intN += len(f.SliceMBStart) + len(f.SliceByteStart)
	}
	a.payload = arenaSlice(a.payload, payloadN)
	a.frames = arenaSlice(a.frames, len(v.Frames))
	a.ptrs = arenaSlice(a.ptrs, len(v.Frames))
	a.mbs = arenaSlice(a.mbs, mbN)
	a.ints = arenaSlice(a.ints, intN)

	out := &Video{Params: v.Params, W: v.W, H: v.H, FPS: v.FPS, Frames: a.ptrs}
	var pOff, mOff, iOff int
	for i, f := range v.Frames {
		g := &a.frames[i]
		// Field by field: the copy must start without f's recorded syntax
		// (its bytes are about to change), and a recycled slot must drop its
		// own — atomically, since a frame that shared the slot's previous
		// tenant may still look at it.
		g.Type, g.CodedIdx, g.DisplayIdx, g.BaseQP = f.Type, f.CodedIdx, f.DisplayIdx, f.BaseQP
		g.RefFwd, g.RefBwd = f.RefFwd, f.RefBwd
		g.syntax.rec.Store(nil)
		g.shared = nil
		g.Payload = a.payload[pOff : pOff+len(f.Payload) : pOff+len(f.Payload)]
		copy(g.Payload, f.Payload)
		pOff += len(f.Payload)
		g.MBs = a.mbs[mOff : mOff+len(f.MBs) : mOff+len(f.MBs)]
		copy(g.MBs, f.MBs)
		mOff += len(f.MBs)
		// The copy shares the dependencies: their one writer, ShiftIndices,
		// runs on a freshly coded video before any copy of it is made.
		g.Deps = f.Deps
		g.SliceMBStart = a.ints[iOff : iOff+len(f.SliceMBStart) : iOff+len(f.SliceMBStart)]
		copy(g.SliceMBStart, f.SliceMBStart)
		iOff += len(f.SliceMBStart)
		g.SliceByteStart = a.ints[iOff : iOff+len(f.SliceByteStart) : iOff+len(f.SliceByteStart)]
		copy(g.SliceByteStart, f.SliceByteStart)
		iOff += len(f.SliceByteStart)
		a.ptrs[i] = g
	}
	return out
}

// ClonePooled is Clone with the backing arena drawn from an internal
// sync.Pool. The copy is bit-identical to Clone's; call Release when done
// with the video to recycle its buffers. A pooled clone that is never
// released is simply collected like any other garbage.
func (v *Video) ClonePooled() *Video {
	a := arenaPool.Get().(*cloneArena)
	out := v.cloneInto(a)
	out.arena = a
	return out
}

// Release returns the backing buffers of a pooled clone to the pool and
// detaches the frame list so accidental reuse fails loudly. It is a no-op on
// videos that did not come from ClonePooled, and on second calls. The caller
// must not retain references to the video's frames or payloads past Release.
func (v *Video) Release() {
	a := v.arena
	if a == nil {
		return
	}
	v.arena = nil
	v.Frames = nil
	arenaPool.Put(a)
}
